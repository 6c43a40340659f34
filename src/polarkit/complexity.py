"""Structural decoding-complexity evaluation of a kernel.

Each of the ell decoding phases works on an extended matrix (the rows at
and below the phase, plus one appended column flagging the phase row).
The phase is costed over a binary section tree: every internal node
combines two child sections, and the combination cost depends on the
dimensions (w, v) of the section's coset structure.  Trellis tables of a
section can be reused in the next phase when the section's code spaces
only shrink, which zeroes that subtree's cost.  ``ReuseMode`` selects how
that condition is judged; ``SECTION_TABLES`` judges it on the section's
own codes.  ``_phase_cost`` costs a phase and decides its reuse in one
walk of the tree, and documents each policy.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import cache, cached_property, lru_cache
from itertools import compress
from typing import Callable

import numpy as np

from polarkit.gf2 import (
    MAX_COLS,
    MAX_ELL,
    MIN_ELL,
    BitMatrix,
    eliminate,
    interval_mask,
    is_subcode,
    rank,
    row_basis,
)
from polarkit.pdp import SingularKernelError


class ReuseMode(str, Enum):
    NONE = "none"
    ALL_CONTIGUOUS = "all_contiguous"
    SECTION_TABLES = "section_tables"


#: Default reuse policy of the searches, self-play and the CLI.  No policy
#: reproduces the published BEST16 total (see the README section
#: "Complexity-model calibration caveat" and tests/test_acceptance.py).
#: It stays the default because the searches' seeded outputs are pinned
#: to it.
CALIBRATED_MODE = ReuseMode.ALL_CONTIGUOUS


# not frozen: a frozen __init__ costs several times more per node
@dataclass
class SectionNode:
    x: int
    y: int
    w: int  # 0 on leaves
    v: int  # the punctured code's dimension is k_s + v
    children: tuple["SectionNode", ...]
    # s_basis is the reduced echelon basis (a canonical fingerprint) of the
    # section's shortened subcode, in full-width rows.
    s_basis: tuple[int, ...] = field(repr=False)
    mask: int = field(repr=False)  # the section's columns, in full-width rows
    # the phase's extended code basis, shared by its nodes, built on first call
    code_basis: Callable[[], tuple[int, ...]] = field(repr=False, compare=False)
    phase: int = field(repr=False, compare=False)
    # the phase row's projection lies outside that of the rows below it
    widened: bool = field(repr=False, compare=False)

    @property
    def is_leaf(self) -> bool:
        return self.y - self.x == 1

    @property
    def k_s(self) -> int:
        """Dimension of the shortened code."""
        return len(self.s_basis)

    @property
    def comb_cost(self) -> int:
        return 0 if self.is_leaf else comb_cost(self.w, self.v)

    # w_reps/v_reps, the full-width representatives of the w- and v-blocks,
    # are derived on first use.  A row is kept when its residual is nonzero,
    # i.e. when it lies outside the span of the seed and the rows kept before.

    @cached_property
    def w_reps(self) -> tuple[int, ...]:
        """Shortened codewords outside the span of the child shortened codes."""
        child_span = [r for c in self.children for r in c.s_basis]
        if len(child_span) == self.k_s:  # w = 0: the children's codes make up the section's
            return ()
        pivots: dict[int, int] = {}
        eliminate(pivots, child_span)
        return tuple(compress(self.s_basis, eliminate(pivots, self.s_basis)))

    @cached_property
    def v_reps(self) -> tuple[int, ...]:
        """Code rows whose section projection extends the shortened
        projection to the punctured code."""
        code_basis = self.code_basis()
        # s_basis is reduced echelon and supported inside the section
        pivots = {r.bit_length() - 1: r for r in self.s_basis}
        return tuple(compress(code_basis, eliminate(pivots, [r & self.mask for r in code_basis])))

    @cached_property
    def links(self) -> tuple[np.ndarray, ...]:
        """Per child, the (2^v, 2^w) int64 array of the child coset that each
        of the node's 2^(w+v) sums reads; the decoder's trellis merge."""
        # words[alpha * 2^w + beta]: bit k of the index selects (w_reps + v_reps)[k]
        words = span_words(self.w_reps + self.v_reps)
        shape = (1 << self.v, 1 << self.w)
        return tuple(child.coset_indices(words).reshape(shape) for child in self.children)

    def coset_indices(self, words: list[int]) -> np.ndarray:
        """The int64 table index of each word's coset: its coordinates over
        ``v_reps`` modulo the shortened code, on the section's columns.
        ValueError for a word outside the punctured code."""
        # Eliminate on the MAX_COLS columns, with v-representative k carrying
        # coefficient bit MAX_COLS + k above them, so a word's residual holds
        # its v-coordinates once its columns cancel.
        low = (1 << MAX_COLS) - 1
        seeds = [(1 << (MAX_COLS + k)) | (r & self.mask) for k, r in enumerate(self.v_reps)]
        seeds += self.s_basis
        residuals = eliminate({}, seeds + [word & self.mask for word in words], low)[len(seeds):]
        if any(r & low for r in residuals):
            raise ValueError("word outside the punctured code")
        return np.array([r >> MAX_COLS for r in residuals], dtype=np.int64)


def span_words(rows: tuple[int, ...]) -> list[int]:
    """Every word of span(rows); word i is the XOR of the rows[k] whose bit
    k is set in i."""
    words = [0]
    for g in rows:
        words += [word ^ g for word in words]
    return words


@dataclass(frozen=True)
class PhaseCost:
    cost: int
    reused: tuple[tuple[int, int], ...]  # maximal reused sections, left to right


@dataclass(frozen=True)
class ComplexityReport:
    per_phase: tuple[PhaseCost, ...]  # indexed by phase
    policy: ReuseMode

    @property
    def ell(self) -> int:
        return len(self.per_phase)

    @property
    def total(self) -> int:
        return sum(p.cost for p in self.per_phase)

    def to_json_dict(self) -> dict:
        return {
            "ell": self.ell,
            "policy": self.policy.value,
            "total": self.total,
            "per_phase": [
                {"phase": i, "cost": p.cost, "reused": [list(iv) for iv in p.reused]}
                for i, p in enumerate(self.per_phase)
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def extend_kernel(kernel: BitMatrix, phase: int) -> BitMatrix:
    """Rows phase..ell-1, each widened by an appended column; the appended
    column is 1 only on the phase row itself."""
    ell = kernel.ncols
    if not 0 <= phase < ell:
        raise ValueError(f"phase {phase} out of range for ell={ell}")
    rows = [kernel.rows[r] << 1 for r in range(phase, ell)]
    rows[0] |= 1  # appended column is the last column -> the LSB
    return BitMatrix(ell + 1, tuple(rows))


def comb_cost(w: int, v: int) -> int:
    """Table-merge cost: 2^(w+v) summations plus a max-tree of comparisons."""
    if w < 0 or v < 0:
        raise ValueError("w and v must be nonnegative")
    return (1 << (w + v)) + ((1 << (w + 1)) - 2)


def split_point(x: int, y: int) -> int:
    """Fixed midpoint rule; odd sections put the shorter part on the left."""
    return x + (y - x) // 2


@lru_cache(maxsize=None)
def _midpoint_sections(ell: int) -> tuple[tuple[int, int, int, tuple[int, ...]], ...]:
    """Midpoint-tree sections (x, y, inside mask, halves' positions), halves first."""
    sections: list[tuple[int, int, int, tuple[int, ...]]] = []

    def visit(x: int, y: int) -> int:
        halves: tuple[int, ...] = ()
        if y - x > 1:
            z = split_point(x, y)
            halves = (visit(x, z), visit(z, y))
        sections.append((x, y, interval_mask(ell + 1, x, y), halves))
        return len(sections) - 1

    visit(0, ell)
    return tuple(sections)


def section_trees(kernel: BitMatrix) -> list[SectionNode]:
    """The section trees of all ell phases of a square, non-singular kernel,
    over the full binary midpoint tree of the non-appended columns.

    The appended phase column counts as "outside" every section, so it
    takes part in shortening but never in puncturing: phase i's shortened
    code on a section is that of rows i+1.., and its punctured code spans
    rows i.. on the section.  One pass from the last phase up adds one
    kernel row per phase to each section's two elimination states.
    """
    ell = kernel.ncols
    if kernel.nrows != ell or rank(kernel.rows) != ell:
        raise SingularKernelError("kernel must be square and non-singular")
    sections = _midpoint_sections(ell)
    # per section: pivots by leading outside bit, the shortened code's
    # reduced echelon basis by leading bit, pivots by leading inside bit
    states = [({}, {}, {}) for _ in sections]
    s_bases: list[tuple[int, ...]] = [()] * len(sections)
    trees: list[SectionNode] = []
    for phase in reversed(range(ell)):
        shorten = [kernel.rows[phase + 1] << 1] if phase + 1 < ell else []
        extend = [kernel.rows[phase] << 1]
        code_basis = cache(lambda phase=phase: tuple(row_basis(extend_kernel(kernel, phase).rows)))
        nodes: list[SectionNode] = []
        for j, ((x, y, inside, halves), (outside_pivots, basis, inside_pivots)) in enumerate(
            zip(sections, states)
        ):
            for r in eliminate(outside_pivots, shorten, ~inside):
                if not r & ~inside:  # the residual vanishes outside: reduce it, join
                    # every bit of the mask has a pivot, so none is added
                    (r,) = eliminate(basis, [r], sum(1 << p for p in basis))
                    p = r.bit_length() - 1
                    basis.update(zip(basis, eliminate({p: r}, basis.values(), 1 << p)))
                    basis[p] = r
                    # distinct leading bits: descending values are echelon order
                    s_bases[j] = tuple(sorted(basis.values(), reverse=True))
            k_p = len(inside_pivots)  # rank of the projection of rows phase+1..
            if k_p < y - x:  # else the projection is all of the section
                eliminate(inside_pivots, extend, inside)
            s_b = s_bases[j]
            children: tuple[SectionNode, ...] = ()
            w = 0
            if halves:
                children = (nodes[halves[0]], nodes[halves[1]])
                w = len(s_b) - len(children[0].s_basis) - len(children[1].s_basis)
            v = len(inside_pivots) - len(s_b)
            widened = len(inside_pivots) > k_p
            nodes.append(SectionNode(x, y, w, v, children, s_b, inside, code_basis, phase, widened))
        trees.append(nodes[-1])
    return trees[::-1]


def reuse_eligible(prev: SectionNode, nxt: SectionNode) -> bool:
    """Whether the trellis of this section in the previous phase covers the
    next phase: (1) the child shortened codes are identical as row spaces,
    and (2) the w/v representative rows of the next phase lie inside the
    span of the previous phase's w/v representatives.

    A representative that carries the next phase's column (the last bit)
    decides (2) alone: the previous phase's code can set that column only
    through its own phase row, which lies outside the span of the later
    rows of a non-singular kernel.  A ``widened`` section needs such a
    representative, so it decides before any is built: the
    v-representatives span the projection modulo the shortened code, and
    one without the phase column lies in the code of the rows below."""
    if (prev.x, prev.y, prev.phase + 1) != (nxt.x, nxt.y, nxt.phase):
        raise ValueError("reuse comparison requires matching intervals of consecutive phases")
    if prev.is_leaf or nxt.is_leaf:
        return False
    if any(p.s_basis != n.s_basis for p, n in zip(prev.children, nxt.children)):
        return False
    if nxt.widened or any(r & 1 for r in nxt.v_reps):
        return False
    return is_subcode(nxt.w_reps + nxt.v_reps, prev.w_reps + prev.v_reps)


def _phase_cost(
    prev: SectionNode | None,
    tree: SectionNode,
    policy: ReuseMode,
    prev_reused: tuple[tuple[int, int], ...],
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Cost of phase tree ``tree`` and its maximal sections whose trellis
    table is taken from the previous phase's tree ``prev`` (None for phase
    0), found in one top-down walk below the root: a section that fits is
    recorded and costs nothing, and its subtree is skipped; every other
    internal node charges ``comb_cost``.  ``prev_reused`` is what the
    previous phase reused.

    ``NONE`` reuses nothing.  ``ALL_CONTIGUOUS`` applies ``reuse_eligible``.
    The root itself never passes it: its v-representative carries the phase
    column, which the previous phase can form only from its own phase row,
    and that row lies outside the span of the later rows of a non-singular
    kernel.

    ``SECTION_TABLES`` judges reuse on the section's own codes.  A section's
    table has one entry per coset of its shortened code S in its punctured
    code P, both taken on the section's columns only; the appended phase
    column and the columns outside the section do not enter.  A node costs
    nothing, and its subtree is skipped, when the previous phase holds a
    table of the same interval for the same S: every coset the next phase
    needs is then an entry of that table.  The punctured codes need no
    test, because the next phase's code (and the known-prefix translate it
    is decoded in) lies inside the previous phase's, so its cosets are
    among the held ones.

    What the previous phase holds for an interval:

    * If it computed the node: the table (code S), and the 2^(w+v)
      pre-comparison sums.  Each sum is the metric of one coset of
      S_left + S_right, so the sums are the section's table for that
      code.  The phase paid for them (the 2^(w+v) term of ``comb_cost``).
      The model's own reuse condition, "child shortened codes unchanged
      and the w/v spaces only shrink", is a statement about exactly this
      table: its entries are indexed by the w/v space over the fixed
      children.
    * If it reused the node: the table it read, for its own S.  Its
      subtree was not evaluated, so nothing below it is held.
    * Nothing older: reuse is between consecutive phases, and a table
      that the previous phase neither formed nor read is not its table.

    The root is never reused and holds nothing.  Its two cosets are the
    two values of the phase's own symbol, and its merge is the
    successive-cancellation step that turns the top sections into the
    phase output; the rule is about the section tables below it.  No
    other policy credits the root either (see above).  Reusing the root's
    sums would make whole phases free, which changes the decoder's
    schedule rather than how sections are judged.

    The node cost stays ``comb_cost``, the published formula that every
    policy shares; this policy changes only which nodes are charged.
    """
    reused: list[tuple[int, int]] = []

    def walk(p: SectionNode | None, n: SectionNode, held: bool) -> int:
        # p: the previous phase's node of n's interval, None where reuse is
        # not tested.  held: the previous phase reused no section above p,
        # so it holds p's table (and p's sums, unless it reused p itself)
        if n.is_leaf:
            return 0
        if p is not None and n is not tree:
            key = (n.x, n.y)
            if policy is not ReuseMode.SECTION_TABLES:
                fits = reuse_eligible(p, n)
            else:
                # shortened rows vanish outside the section, so equal
                # fingerprints are equal codes on the section's own columns.
                # The children's bases have disjoint supports, left above
                # right, so their concatenation is the reduced basis of the
                # sum S_left + S_right.
                p_left, p_right = p.children
                fits = held and (
                    n.s_basis == p.s_basis
                    or (key not in prev_reused and n.s_basis == p_left.s_basis + p_right.s_basis)
                )
            if fits:
                reused.append(key)
                return 0
            held = held and key not in prev_reused
        left, right = n.children
        if p is None:
            return walk(None, left, held) + walk(None, right, held) + n.comb_cost
        return walk(p.children[0], left, held) + walk(p.children[1], right, held) + n.comb_cost

    cost = walk(None if policy is ReuseMode.NONE else prev, tree, True)
    return cost, tuple(reused)


@lru_cache(maxsize=1 << 16)
def total_complexity_cached(kernel: BitMatrix, policy: ReuseMode = CALIBRATED_MODE) -> int:
    """Total only, memoized; search and self-play revisit kernels often."""
    return total_complexity(kernel, policy).total


def total_complexity(kernel: BitMatrix, policy: ReuseMode = CALIBRATED_MODE) -> ComplexityReport:
    """Per-phase section-tree costs summed over all ell phases, with the
    requested trellis-reuse policy applied between consecutive phases."""
    ell = kernel.ncols
    if not MIN_ELL <= ell <= MAX_ELL:
        raise ValueError(f"kernel size {ell} outside supported range [{MIN_ELL}, {MAX_ELL}]")
    return ComplexityReport(phase_costs(section_trees(kernel), policy), policy)


def phase_costs(trees: Sequence[SectionNode], policy: ReuseMode) -> tuple[PhaseCost, ...]:
    """The cost and reused sections of each phase of ``section_trees``'
    output; the SC decoder reads the ``SECTION_TABLES`` reuse from here."""
    per_phase = []
    reused: tuple[tuple[int, int], ...] = ()
    for prev, tree in zip([None, *trees], trees):
        cost, reused = _phase_cost(prev, tree, policy, reused)
        per_phase.append(PhaseCost(cost, reused))
    return tuple(per_phase)
