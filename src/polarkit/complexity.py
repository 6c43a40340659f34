"""Structural decoding-complexity evaluation of a kernel.

Each of the ell decoding phases works on an extended matrix (the rows at
and below the phase, plus one appended column flagging the phase row).
The phase is costed over a binary section tree: every internal node
combines two child sections, and the combination cost depends on the
dimensions (w, v) of the section's coset structure.  Trellis tables of a
section can be reused in the next phase when the section's code spaces
only shrink, which zeroes that subtree's cost.  ``ReuseMode`` selects how
that condition is judged; ``SECTION_TABLES`` judges it on the section's
own codes (see ``_section_table_reuse``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

from polarkit.gf2 import (
    BitMatrix,
    eliminate,
    interval_mask,
    is_subcode,
    punctured_dimension,
    rank,
    reduced_basis,
    row_basis,
    shortened_basis,
)
from polarkit.pdp import SingularKernelError


class ReuseMode(str, Enum):
    NONE = "none"
    TOP_SECTIONS = "top_sections"
    ALL_CONTIGUOUS = "all_contiguous"
    SECTION_TABLES = "section_tables"


#: Default reuse policy of the searches, self-play and the CLI.  No policy
#: reproduces the published BEST16 total (see the README section
#: "Complexity-model calibration caveat" and tests/test_acceptance.py).
#: It stays the default because the searches' seeded outputs are pinned
#: to it.
CALIBRATED_MODE = ReuseMode.ALL_CONTIGUOUS


@dataclass(frozen=True)
class SectionNode:
    x: int
    y: int
    z: int | None
    k_s: int
    k_p: int
    w: int
    v: int
    comb_cost: int
    children: tuple["SectionNode", ...]
    # canonical row-space fingerprints used by the reuse conditions:
    # s_basis spans the section's shortened subcode (full-width rows),
    # wv_basis spans canonical full-width representatives of the w- and
    # v-blocks of the section decomposition.  w_reps/v_reps keep the raw
    # per-block representatives for trellis construction.
    s_basis: tuple[int, ...] = field(repr=False, default=())
    wv_basis: tuple[int, ...] = field(repr=False, default=())
    s_left: tuple[int, ...] = field(repr=False, default=())
    s_right: tuple[int, ...] = field(repr=False, default=())
    w_reps: tuple[int, ...] = field(repr=False, default=())
    v_reps: tuple[int, ...] = field(repr=False, default=())

    @property
    def is_leaf(self) -> bool:
        return self.y - self.x == 1


@dataclass(frozen=True)
class PhaseCost:
    phase: int
    cost: int
    reused: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ComplexityReport:
    ell: int
    per_phase: tuple[PhaseCost, ...]
    total: int
    policy: ReuseMode

    def to_json_dict(self) -> dict:
        return {
            "ell": self.ell,
            "policy": self.policy.value,
            "total": self.total,
            "per_phase": [
                {"phase": p.phase, "cost": p.cost, "reused": [list(iv) for iv in p.reused]}
                for p in self.per_phase
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def extend_kernel(kernel: BitMatrix, phase: int) -> BitMatrix:
    """Rows phase..ell-1, each widened by an appended column; the appended
    column is 1 only on the phase row itself."""
    ell = kernel.ncols
    if kernel.nrows != ell or rank(kernel.rows) != ell:
        raise SingularKernelError("kernel must be square and non-singular")
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


def build_section_tree(extended: BitMatrix) -> SectionNode:
    """Full binary section tree over the non-appended columns.

    The appended column always counts as "outside" every section, so it
    participates in shortening but never in puncturing.
    """
    ncols = extended.ncols
    full_mask = (1 << ncols) - 1
    code_basis = row_basis(extended.rows)

    def wv_reps(
        s_b: tuple[int, ...], child_span: tuple[int, ...], inside: int
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        # w-block: shortened codewords outside the span of the child
        # shortened codes; v-block: full-width codewords whose section
        # projection extends the shortened projection to the punctured code.
        # A row is kept when its residual is nonzero, i.e. when it lies
        # outside the span of the seed and the rows kept before it.
        pivots: dict[int, int] = {}
        eliminate(pivots, child_span)
        w_reps = tuple(r for r, res in zip(s_b, eliminate(pivots, s_b)) if res)
        # s_b is reduced echelon and supported inside the section
        pivots = {r.bit_length() - 1: r for r in s_b}
        residuals = eliminate(pivots, [r & inside for r in code_basis])
        v_reps = tuple(r for r, res in zip(code_basis, residuals) if res)
        return w_reps, v_reps

    def node(x: int, y: int) -> SectionNode:
        inside = interval_mask(ncols, x, y)
        outside = full_mask ^ inside
        k_p = punctured_dimension(extended, x, y)
        s_b = reduced_basis(shortened_basis(extended.rows, outside))
        k_s = len(s_b)
        v = k_p - k_s
        if y - x == 1:
            w_r, v_r = wv_reps(s_b, (), inside)
            return SectionNode(
                x, y, None, k_s, k_p, 0, v, 0, (),
                s_b, reduced_basis(w_r + v_r), (), (), w_r, v_r,
            )
        z = split_point(x, y)
        left = node(x, z)
        right = node(z, y)
        w = k_s - left.k_s - right.k_s
        w_r, v_r = wv_reps(s_b, left.s_basis + right.s_basis, inside)
        return SectionNode(
            x, y, z, k_s, k_p, w, v, comb_cost(w, v), (left, right),
            s_b, reduced_basis(w_r + v_r), left.s_basis, right.s_basis, w_r, v_r,
        )

    return node(0, ncols - 1)


def reuse_eligible(prev: SectionNode, nxt: SectionNode) -> bool:
    """Whether the trellis of this section in the previous phase covers the
    next phase: (1) the child shortened codes are identical as row spaces,
    and (2) the w/v representative rows of the next phase lie inside the
    span of the previous phase's w/v representatives."""
    if (prev.x, prev.y) != (nxt.x, nxt.y):
        raise ValueError("reuse comparison requires matching intervals")
    if prev.is_leaf or nxt.is_leaf:
        return False
    if prev.s_left != nxt.s_left or prev.s_right != nxt.s_right:
        return False
    return is_subcode(nxt.wv_basis, prev.wv_basis)


def _reused_intervals(prev: SectionNode, nxt: SectionNode, mode: ReuseMode) -> list[tuple[int, int]]:
    if mode is ReuseMode.NONE:
        return []
    if mode is ReuseMode.TOP_SECTIONS:
        out = []
        for pc, nc in zip(prev.children, nxt.children):
            if not pc.is_leaf and reuse_eligible(pc, nc):
                out.append((nc.x, nc.y))
        return out
    # ALL_CONTIGUOUS: maximal reusable nodes, checked top-down
    out = []

    def walk(p: SectionNode, n: SectionNode) -> None:
        if p.is_leaf:
            return
        if reuse_eligible(p, n):
            out.append((n.x, n.y))
            return
        for pc, nc in zip(p.children, n.children):
            walk(pc, nc)

    walk(prev, nxt)
    return out


def _section_table_reuse(
    prev: SectionNode, prev_reused: set[tuple[int, int]], nxt: SectionNode
) -> list[tuple[int, int]]:
    """Maximal sections of the next phase whose table the previous phase
    already holds, judged on the section's own codes.

    A section's table has one entry per coset of its shortened code S in
    its punctured code P, both taken on the section's columns only; the
    appended phase column and the columns outside the section do not
    enter.  A node costs nothing, and its subtree is skipped, when the
    previous phase holds a table of the same interval for the same S:
    every coset the next phase needs is then an entry of that table.  The
    punctured codes need no test, because the next phase's code (and the
    known-prefix translate it is decoded in) lies inside the previous
    phase's, so its cosets are among the held ones.

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
    other policy credits the root either: its w/v representatives carry
    the phase column, which marks a different row in every phase.
    Reusing the root's sums would make whole phases free, which changes
    the decoder's schedule rather than how sections are judged.

    The node cost stays ``comb_cost``, the published formula that every
    policy shares; this policy changes only which nodes are charged.
    """
    held: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}

    def hold(node: SectionNode) -> None:
        if node.is_leaf:
            return
        key = (node.x, node.y)
        if key in prev_reused:
            held[key] = (node.s_basis,)
            return
        held[key] = (node.s_basis, reduced_basis(node.s_left + node.s_right))
        for child in node.children:
            hold(child)

    out: list[tuple[int, int]] = []

    def walk(node: SectionNode) -> None:
        if node.is_leaf:
            return
        # shortened rows vanish outside the section, so equal fingerprints
        # are equal codes on the section's own columns
        if node.s_basis in held.get((node.x, node.y), ()):
            out.append((node.x, node.y))
            return
        for child in node.children:
            walk(child)

    for child in prev.children:
        hold(child)
    for child in nxt.children:
        walk(child)
    return out


def _cost_with_reuse(tree: SectionNode, reused: set[tuple[int, int]]) -> int:
    if tree.is_leaf or (tree.x, tree.y) in reused:
        return 0
    return (
        _cost_with_reuse(tree.children[0], reused)
        + _cost_with_reuse(tree.children[1], reused)
        + tree.comb_cost
    )


@lru_cache(maxsize=1 << 16)
def total_complexity_cached(kernel: BitMatrix, policy: ReuseMode = CALIBRATED_MODE) -> int:
    """Total only, memoized; search and self-play revisit kernels often."""
    return total_complexity(kernel, policy).total


def total_complexity(kernel: BitMatrix, policy: ReuseMode = CALIBRATED_MODE) -> ComplexityReport:
    """Per-phase section-tree costs summed over all ell phases, with the
    requested trellis-reuse policy applied between consecutive phases."""
    ell = kernel.ncols
    if not 2 <= ell <= 16:
        raise ValueError(f"kernel size {ell} outside supported range [2, 16]")
    trees = [build_section_tree(extend_kernel(kernel, i)) for i in range(ell)]
    per_phase = []
    total = 0
    for i, tree in enumerate(trees):
        if i == 0:
            reused: list[tuple[int, int]] = []
        elif policy is ReuseMode.SECTION_TABLES:
            reused = _section_table_reuse(trees[i - 1], set(reused), tree)
        else:
            reused = _reused_intervals(trees[i - 1], tree, policy)
        cost = _cost_with_reuse(tree, set(reused))
        per_phase.append(PhaseCost(i, cost, tuple(sorted(reused))))
        total += cost
    return ComplexityReport(ell, tuple(per_phase), total, policy)
