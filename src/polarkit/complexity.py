"""Structural decoding-complexity evaluation of a kernel.

Each of the ell decoding phases works on an extended matrix (the rows at
and below the phase, plus one appended column flagging the phase row).
The phase is costed over a binary section tree: every internal node
combines two child sections, and the combination cost depends on the
dimensions (w, v) of the section's coset structure.  Trellis tables of a
section can be reused in the next phase when the section's code spaces
only shrink, which zeroes that subtree's cost.  ``ReuseMode`` selects how
that condition is judged; ``SECTION_TABLES`` judges it on the section's
own codes.

``section_trees`` alone chooses the tree, the midpoint tree, and computes
every phase's section codes in one pass into a flat ``SectionTable`` of
plain ints, per phase and per section; the tree is ``table.sections``,
whose entries name their halves by position.  ``phase_costs`` costs a
phase and decides its reuse in one walk down the table's post-order, and
documents each policy.  The decoder compiles its trellis from the same
table, by (phase, section).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import compress

from polarkit.gf2 import (
    BitMatrix,
    check_width,
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


class SectionTable:
    """The section codes of every phase of one kernel (``section_trees``).

    Section j is entry j of ``sections``, the tree that ``section_trees``
    chose, in post-order (halves first); each entry names its halves by
    position, so that list is the tree, and the subtree of a section (x, y)
    is the 2(y - x) - 1 entries ending at it.  Per phase p,
    ``s_basis[p][j]`` is the reduced echelon basis (a canonical
    fingerprint) of the section's shortened subcode, in full-width rows;
    ``w[p][j]`` (0 on leaves) and ``v[p][j]`` are its coset dimensions, the
    punctured code's dimension being ``len(s_basis[p][j]) + v[p][j]``; and
    ``widened[p][j]`` says that the phase row's projection lies outside
    that of the rows below it.  The phase code bases and the w/v
    representatives are derived on first read and memoized here, so they
    live as long as the table.
    """

    __slots__ = ("kernel", "ell", "sections", "s_basis", "w", "v", "widened")
    __slots__ += ("_code_bases", "_w_reps", "_v_reps")  # the memos

    def __init__(
        self, kernel: BitMatrix, sections: tuple, s_basis: list, w: list, v: list, widened: list
    ):
        self.kernel, self.ell, self.sections = kernel, kernel.ncols, sections
        self.s_basis, self.w, self.v, self.widened = s_basis, w, v, widened
        # per phase (and section): None until first read
        self._code_bases: list = [None] * self.ell
        self._w_reps = [[None] * len(self.sections) for _ in range(self.ell)]
        self._v_reps = [[None] * len(self.sections) for _ in range(self.ell)]

    def code_basis(self, phase: int) -> tuple[int, ...]:
        """Row-echelon basis of the phase's extended rows: rows phase.., each
        with an appended last column that is 1 only on the phase row."""
        basis = self._code_bases[phase]
        if basis is None:
            rows = self.kernel.rows
            extended = [(rows[phase] << 1) | 1, *(r << 1 for r in rows[phase + 1 :])]
            basis = self._code_bases[phase] = tuple(row_basis(extended))
        return basis

    # A representative is a row kept because its residual is nonzero, i.e.
    # it lies outside the span of the seeds and the rows kept before it.
    # The seeds are echelon rows with distinct leading bits, so they are
    # pivots as they stand.  Once the pivots reach the rank of all the rows,
    # every later row lies in their span, so the selection stops there.

    def w_reps(self, phase: int, j: int) -> tuple[int, ...]:
        """Shortened codewords outside the span of the child shortened codes."""
        reps = self._w_reps[phase][j]
        if reps is None:
            halves, s_b = self.sections[j][3], self.s_basis[phase]
            if halves and not self.w[phase][j]:  # the child codes span the section's
                reps = ()
            else:
                pivots = {r.bit_length() - 1: r for h in halves for r in s_b[h]}
                reps = _select(pivots, s_b[j], s_b[j], len(s_b[j]))
            self._w_reps[phase][j] = reps
        return reps

    def v_reps(self, phase: int, j: int) -> tuple[int, ...]:
        """Code rows whose section projection extends the shortened
        projection to the punctured code."""
        reps = self._v_reps[phase][j]
        if reps is None:
            v = self.v[phase][j]
            if not v:  # the punctured projection is the shortened code
                reps = ()
            else:
                s_b = self.s_basis[phase][j]
                mask = self.sections[j][2]
                code_basis = self.code_basis(phase)
                pivots = {r.bit_length() - 1: r for r in s_b}
                projected = [r & mask for r in code_basis]
                reps = _select(pivots, code_basis, projected, len(s_b) + v)
            self._v_reps[phase][j] = reps
        return reps

    def reuse_eligible(self, phase: int, j: int) -> bool:
        """Whether the trellis of section j in the previous phase covers
        phase ``phase`` (the ``ALL_CONTIGUOUS`` rule): (1) the child
        shortened codes are identical as row spaces, and (2) the w/v
        representative rows of the phase lie inside the span of the
        previous phase's w/v representatives.  A leaf never is.

        The tests run cheapest first: ``widened``, the section's own
        shortened code S, a phase-column v-representative, then the span
        test of the v-representatives alone.  (2) implies an unchanged S,
        which implies (1), the children's codes being S cut to each half.
        Proof: a word c of the previous S missing from S needs the phase
        row, so c with the phase column set is a phase word: on the
        section c = s + q, s in S_left + S_right, q in span(W, V), which
        (2) puts in the previous span(W, V).  The previous V is
        independent modulo its S, so q lies in its span(W), and q and c
        lie in S.  With S unchanged, W is the previous phase's.

        A representative that carries the phase's column (the last bit)
        fails the span test alone: the previous phase's code can set that
        column only through its own phase row, which lies outside the
        span of the later rows of a non-singular kernel.  A ``widened``
        section needs such a representative, so it decides before any is
        built: the v-representatives span the projection modulo the
        shortened code, and one without the phase column lies in the code
        of the rows below."""
        if not 0 < phase < self.ell:
            raise ValueError(f"phase {phase} has no previous phase in a width-{self.ell} table")
        if not self.sections[j][3] or self.widened[phase][j]:
            return False
        if self.s_basis[phase - 1][j] != self.s_basis[phase][j]:
            return False
        v_reps = self.v_reps(phase, j)
        if any(r & 1 for r in v_reps):
            return False
        return is_subcode(v_reps, self.w_reps(phase - 1, j) + self.v_reps(phase - 1, j))


def _select(pivots: dict[int, int], rows: tuple[int, ...], reduced, rank: int) -> tuple[int, ...]:
    """The rows whose ``reduced`` form adds a pivot, read until ``pivots``
    holds ``rank``."""
    return tuple(compress(rows, eliminate(pivots, reduced, rank=rank)))


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


def section_trees(kernel: BitMatrix) -> SectionTable:
    """The section codes of all ell phases of a square, non-singular
    kernel, over the full binary midpoint tree of the non-appended columns.

    The appended phase column counts as "outside" every section, so it
    takes part in shortening but never in puncturing: phase i's shortened
    code on a section is that of rows i+1.., and its punctured code spans
    rows i.. on the section.  One pass from the last phase up adds one
    kernel row per phase to each section's two elimination states.
    """
    ell = kernel.ncols
    check_width(ell)
    if kernel.nrows != ell or rank(kernel.rows) != ell:
        raise SingularKernelError("kernel must be square and non-singular")
    sections = _midpoint_sections(ell)
    # per section: pivots by leading outside bit, the shortened code's
    # reduced echelon basis by leading bit, pivots by leading inside bit
    states = [({}, {}, {}) for _ in sections]
    bases: list[tuple[int, ...]] = [()] * len(sections)  # the phase's s_basis per section
    s_basis, ws, vs, widened = [], [], [], []
    for phase in reversed(range(ell)):
        shorten = [kernel.rows[phase + 1] << 1] if phase + 1 < ell else []
        extend = [kernel.rows[phase] << 1]
        w, v, wide = [], [], []
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
                    bases[j] = tuple(sorted(basis.values(), reverse=True))
            k_p = len(inside_pivots)  # rank of the projection of rows phase+1..
            if k_p < y - x:  # else the projection is all of the section
                eliminate(inside_pivots, extend, inside)
            k_s = len(bases[j])
            w.append(k_s - len(bases[halves[0]]) - len(bases[halves[1]]) if halves else 0)
            v.append(len(inside_pivots) - k_s)
            wide.append(len(inside_pivots) > k_p)
        s_basis.append(tuple(bases))
        ws.append(w)
        vs.append(v)
        widened.append(wide)
    return SectionTable(kernel, sections, s_basis[::-1], ws[::-1], vs[::-1], widened[::-1])


@lru_cache(maxsize=1 << 16)
def total_complexity_cached(kernel: BitMatrix) -> int:
    """Calibrated total only, memoized for self-play, whose search re-reaches finished kernels."""
    return total_complexity(kernel, CALIBRATED_MODE).total


def total_complexity(kernel: BitMatrix, policy: ReuseMode = CALIBRATED_MODE) -> ComplexityReport:
    """Per-phase section-tree costs summed over all ell phases, with the
    requested trellis-reuse policy applied between consecutive phases."""
    return ComplexityReport(phase_costs(section_trees(kernel), policy), policy)


def phase_costs(table: SectionTable, policy: ReuseMode) -> tuple[PhaseCost, ...]:
    """The cost and reused sections of each phase of ``section_trees``'
    table; the SC decoder reads the ``SECTION_TABLES`` reuse from here.

    A phase is costed in one walk down ``table.sections`` from below the
    root, which the root's ``comb_cost`` joins: a section whose trellis
    table is taken from the previous phase is recorded and costs nothing,
    and the walk goes on below its subtree; every other internal section
    charges ``comb_cost``.  Phase 0 reuses nothing.

    ``NONE`` reuses nothing.  ``ALL_CONTIGUOUS`` applies
    ``SectionTable.reuse_eligible``, which passes only sections whose own
    shortened code is unchanged, the per-section condition of
    ``SECTION_TABLES`` below, and then span-tests their v-representatives;
    it does not track which tables the previous phase holds.  The root
    itself never passes it: its
    v-representative carries the phase column, which the previous phase
    can form only from its own phase row, and that row lies outside the
    span of the later rows of a non-singular kernel.

    ``SECTION_TABLES`` judges reuse on the section's own codes.  A
    section's table has one entry per coset of its shortened code S in its
    punctured code P, both taken on the section's columns only; the
    appended phase column and the columns outside the section do not
    enter.  A section costs nothing, and its subtree is skipped, when the
    previous phase holds a table of the same interval for the same S:
    every coset the phase needs is then an entry of that table.  The
    punctured codes need no test, because the phase's code (and the
    known-prefix translate it is decoded in) lies inside the previous
    phase's, so its cosets are among the held ones.

    What the previous phase holds for an interval:

    * If it computed the section: the table (code S), and the 2^(w+v)
      pre-comparison sums.  Each sum is the metric of one coset of
      S_left + S_right, so the sums are the section's table for that
      code.  The phase paid for them (the 2^(w+v) term of ``comb_cost``).
      The model's own reuse condition, "shortened code unchanged (so the
      children's are) and the w/v spaces only shrink", is a statement
      about exactly this table: its entries are indexed by the w/v space
      over the fixed children.
    * If it reused the section: the table it read, for its own S.  Its
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

    The section cost stays ``comb_cost``, the published formula that every
    policy shares; this policy changes only which sections are charged.
    """
    sections = table.sections
    root = len(sections) - 1
    per_phase = []
    prev_reused: list[int] = []
    for phase, (w, v, s_b) in enumerate(zip(table.w, table.v, table.s_basis)):
        cost = comb_cost(w[root], v[root])
        reused: list[int] = []  # right to left
        tested = phase > 0 and policy is not ReuseMode.NONE
        prev = table.s_basis[phase - 1]  # not read in phase 0
        # positions from `unheld` up lie in the subtree of a section that
        # the previous phase reused, which it does not hold; those sections
        # are disjoint, so the walk leaves one such subtree before the next
        j, unheld = root - 1, root
        while j >= 0:
            x, y, _, halves = sections[j]
            if halves and tested:
                if policy is ReuseMode.SECTION_TABLES:
                    # shortened rows vanish outside the section, so equal
                    # fingerprints are equal codes on the section's own
                    # columns.  The children's bases have disjoint
                    # supports, left above right, so their concatenation
                    # is the reduced basis of the sum S_left + S_right.
                    left, right = halves
                    fits = j < unheld and (
                        s_b[j] == prev[j]
                        or (j not in prev_reused and s_b[j] == prev[left] + prev[right])
                    )
                else:
                    fits = table.reuse_eligible(phase, j)
                if fits:
                    reused.append(j)
                    j -= 2 * (y - x) - 1  # past its subtree
                    continue
                if j in prev_reused:
                    unheld = j - 2 * (y - x) + 2
            if halves:
                cost += comb_cost(w[j], v[j])
            j -= 1
        reused.reverse()
        per_phase.append(PhaseCost(cost, tuple(sections[j][:2] for j in reused)))
        prev_reused = reused
    return tuple(per_phase)
