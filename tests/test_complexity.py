"""Section trees, combination costs, and reuse policies."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from polarkit import codec, complexity, pdp, search
from polarkit.complexity import (
    CALIBRATED_MODE,
    ReuseMode,
    SectionTable,
    comb_cost,
    section_trees,
    split_point,
    total_complexity,
    total_complexity_cached,
)
from polarkit.gf2 import BitMatrix, interval_mask, is_subcode, row_basis
from polarkit.pdp import SingularKernelError
from polarkit.reference import ARIKAN, BEST12, BEST16
from tests.conftest import (
    RNG_SEED,
    extend_kernel,
    greedy_selection,
    naive_rank,
    naive_span,
    oracle_reuse_eligible,
    oracle_section_trees,
    oracle_sections,
    oracle_total_complexity,
    random_kernel,
    to_bits,
)


def test_extend_kernel_shape_and_flag():
    ext = extend_kernel(ARIKAN, 0)
    assert ext.ncols == 3
    assert ext.rows == (0b101, 0b110)  # appended column set only on the phase row
    ext = extend_kernel(ARIKAN, 1)
    assert ext.rows == (0b111,)
    for phase in (-1, 2):
        with pytest.raises(ValueError, match=f"phase {phase} out of range for ell=2"):
            extend_kernel(ARIKAN, phase)


def test_section_trees_rejects_singular():
    with pytest.raises(SingularKernelError):
        section_trees(BitMatrix(2, (0b11, 0b11)))


def test_comb_cost_formula():
    assert comb_cost(0, 0) == 1
    assert comb_cost(1, 1) == 6
    assert comb_cost(2, 1) == 14
    with pytest.raises(ValueError):
        comb_cost(-1, 0)


def test_split_point_midpoint():
    assert split_point(0, 8) == 4
    assert split_point(0, 5) == 2  # shorter part on the left


def _table_fields(table: SectionTable, phase: int) -> list[tuple]:
    """Every section's fields in one phase, in table order, and the size,
    cost and leaf test derived from them."""
    w, v, s_b = table.w[phase], table.v[phase], table.s_basis[phase]
    return [
        (x, y, w[j], v[j], len(s_b[j]), comb_cost(w[j], v[j]) if halves else 0, not halves)
        + (s_b[j], table.w_reps(phase, j), table.v_reps(phase, j), mask, phase, halves)
        for j, (x, y, mask, halves) in enumerate(table.sections)
    ]


def _oracle_fields(tree) -> list[tuple]:
    """``_table_fields`` of an oracle tree, its halves found by position."""
    nodes = oracle_sections(tree)
    return [
        (n.x, n.y, n.w, n.v, n.k_s, n.comb_cost, n.is_leaf, n.s_basis, n.w_reps, n.v_reps)
        + (n.mask, n.phase, tuple(map(nodes.index, n.children)))
        for n in nodes
    ]


def _oracle_kernels(rng) -> list[BitMatrix]:
    """The references and two seeded sets: 150 kernels of widths cycling
    2..16, and ten kernels of each width in turn from a fresh generator."""
    kernels = [ARIKAN, BEST12, BEST16]
    kernels += [random_kernel(2 + i % 15, rng) for i in range(150)]
    by_width = np.random.default_rng(RNG_SEED)
    kernels += [random_kernel(ell, by_width) for ell in range(2, 17) for _ in range(10)]
    return kernels


def test_section_trees_match_per_phase_oracle(rng):
    """Differential oracle: the one-pass table equals trees built phase by
    phase from scratch, on every section field (representatives and
    halves included), and each phase's code basis equals the extended
    kernel's."""
    for kernel in _oracle_kernels(rng):
        table, oracle = section_trees(kernel), oracle_section_trees(kernel)
        assert len(table.s_basis) == len(oracle) == kernel.ncols
        for phase, want in enumerate(oracle):
            assert _table_fields(table, phase) == _oracle_fields(want), (kernel, phase)
            assert table.code_basis(phase) == tuple(row_basis(extend_kernel(kernel, phase).rows))
            for x, y, mask, _ in table.sections:
                assert mask == interval_mask(kernel.ncols + 1, x, y)


def test_one_walk_matches_two_walk_oracle(rng):
    """Each phase's single cost-and-reuse walk gives the report of the
    two-walk oracle over the oracle trees and the literal reuse rule:
    maximal reused sections first, then the charge of every node outside
    them.  Every policy, on the kernels of the tree oracle above."""
    for kernel in _oracle_kernels(rng):
        for policy in ReuseMode:
            got = total_complexity(kernel, policy).to_json()
            want = json.dumps(oracle_total_complexity(kernel, policy), indent=2)
            assert got == want, (kernel, policy)


def test_early_stopped_reps_match_full_selection(rng):
    """The representatives stop reading rows once they span the rank; a
    full greedy selection over every row (conftest) keeps the same rows.
    Widths 2..12, every node of every phase; many selections do stop
    before the last row."""
    stopped = 0
    for ell in range(2, 13):
        for _ in range(6):
            kernel = random_kernel(ell, rng)
            table = section_trees(kernel)
            for phase, s_b in enumerate(table.s_basis):
                code_basis = table.code_basis(phase)
                for j, (_, _, mask, halves) in enumerate(table.sections):
                    seeds = [r for h in halves for r in s_b[h]]
                    assert table.w_reps(phase, j) == greedy_selection(seeds, s_b[j], s_b[j])
                    projected = [r & mask for r in code_basis]
                    v_reps = table.v_reps(phase, j)
                    assert v_reps == greedy_selection(s_b[j], code_basis, projected)
                    if v_reps:
                        stopped += v_reps[-1] != code_basis[-1]
    assert stopped >= 1000


def _select(rows: tuple[int, ...], index: int) -> int:
    """XOR of the rows whose bit is set in `index`."""
    assert 0 <= index < 1 << len(rows)
    word = 0
    for k, r in enumerate(rows):
        if index >> k & 1:
            word ^= r
    return word


def test_links_name_each_sums_child_coset(rng):
    """Every internal section of every phase, on BEST12 and random kernels
    at widths 2..8: sum alpha * 2^w + beta of a section is the word that
    selects (w_reps + v_reps)[k] by its bit k, and its entry c in a half's
    link array (`codec._links`) names the half's coset that holds the word
    on the half's columns: the word plus the half's v-representatives
    selected by c lies there in the half's shortened code.  A word outside
    the punctured code has no coset index."""
    kernels = [BEST12] + [random_kernel(ell, rng) for ell in range(2, 9) for _ in range(4)]
    checked = 0
    for kernel in kernels:
        table = section_trees(kernel)
        for phase, s_b in enumerate(table.s_basis):
            for j, (x, y, _, halves) in enumerate(table.sections):
                if not halves:
                    continue
                generators = table.w_reps(phase, j) + table.v_reps(phase, j)
                for h, link in zip(halves, codec._links(table, phase, j), strict=True):
                    assert link.shape == (1 << table.v[phase][j], 1 << table.w[phase][j])
                    mask, reps = table.sections[h][2], table.v_reps(phase, h)
                    for index, c in enumerate(link.flat):
                        word = _select(generators, index) ^ _select(reps, int(c))
                        assert is_subcode([word & mask], s_b[h]), (kernel, phase, x, y)
                        checked += 1
    assert checked > 5000
    # phase 1 of ARIKAN punctures its one extended row 0b111 to 0b110 on
    # the root section, where the word 0b100 then lies in no coset
    table = section_trees(ARIKAN)
    assert codec._coset_indices(table, 1, 2, [0b110]).tolist() == [1]
    with pytest.raises(ValueError, match="word outside the punctured code"):
        codec._coset_indices(table, 1, 2, [0b100])


def test_code_basis_built_only_for_representatives(rng, monkeypatch):
    """Only reads of the v-representatives build a phase's code basis,
    once per phase: the policies that never read them build none."""
    built = []

    def counted(rows):
        built.append(rows)
        return row_basis(rows)

    monkeypatch.setattr(complexity, "row_basis", counted)
    for kernel in [BEST12, BEST16] + [random_kernel(2 + i % 15, rng) for i in range(30)]:
        for policy in ReuseMode:
            built.clear()
            total_complexity(kernel, policy)
            if policy in (ReuseMode.NONE, ReuseMode.SECTION_TABLES):
                assert built == [], policy
            else:
                assert len(built) <= kernel.ncols, policy
        built.clear()
        table = section_trees(kernel)
        for phase in range(kernel.ncols):
            for j in range(len(table.sections)):
                table.v_reps(phase, j)  # the first read in a phase builds its code basis
        assert len(built) == kernel.ncols


def test_root_v_is_one_every_phase(rng):
    for _ in range(20):
        ell = int(rng.integers(2, 9))
        kernel = random_kernel(ell, rng)
        for v in section_trees(kernel).v:
            assert v[-1] == 1  # the root is the last section


def test_dimension_monotonicity(rng):
    for _ in range(20):
        ell = int(rng.integers(2, 13))
        kernel = random_kernel(ell, rng)
        phase = int(rng.integers(0, ell))
        table = section_trees(kernel)
        s_b, w, v = table.s_basis[phase], table.w[phase], table.v[phase]
        for j, (_, _, _, halves) in enumerate(table.sections):
            assert v[j] >= 0  # the punctured code's dimension k_s + v is at least k_s
            if halves:
                k_s, (left, right) = len(s_b[j]), halves
                assert k_s >= len(s_b[left]) + len(s_b[right])
                assert w[j] == k_s - len(s_b[left]) - len(s_b[right])


def test_node_dimensions_match_enumeration(rng):
    """Naive oracle for every node: k_s counts the code words that vanish
    outside the section, k_p ranks the rows projected onto it, and w and v
    follow from them by their definitions."""
    for _ in range(12):
        ell = int(rng.integers(2, 11))
        kernel = random_kernel(ell, rng)
        table = section_trees(kernel)
        for phase, (s_b, w, v) in enumerate(zip(table.s_basis, table.w, table.v)):
            bits = to_bits(extend_kernel(kernel, phase))
            words = naive_span(bits)
            k_s = []  # per section, halves first
            for j, (x, y, _, halves) in enumerate(table.sections):
                shortened = [word for word in words if not any(word[:x]) and not any(word[y:])]
                k_s.append(len(shortened).bit_length() - 1)
                k_p = naive_rank([row[x:y] for row in bits])
                assert (len(s_b[j]), len(s_b[j]) + v[j]) == (k_s[j], k_p)
                assert w[j] == (k_s[j] - sum(k_s[h] for h in halves) if halves else 0)


def test_reuse_eligible_matches_literal_rule(rng, monkeypatch):
    """The rule's early rejections (``widened``, the section's own code,
    a phase-column v-representative) decide exactly as the oracle's
    child-code clause and span test would, on the oracle trees, at widths
    2..16.  A section whose own code changed is rejected before any
    representative is read."""
    read = []
    v_reps = SectionTable.v_reps

    def counted(table, phase, j):
        read.append((phase, j))
        return v_reps(table, phase, j)

    monkeypatch.setattr(SectionTable, "v_reps", counted)
    decided = by_section_code = 0
    for _ in range(60):
        kernel = random_kernel(int(rng.integers(2, 17)), rng)
        table = section_trees(kernel)
        oracle = [oracle_sections(tree) for tree in oracle_section_trees(kernel)]
        for phase, (prev, nxt) in enumerate(zip(oracle, oracle[1:]), start=1):
            for j, (p, n) in enumerate(zip(prev, nxt, strict=True)):
                read.clear()
                got = table.reuse_eligible(phase, j)
                assert got == oracle_reuse_eligible(p, n), (kernel, phase)
                decided += bool(p.children)
                if p.children and not table.widened[phase][j] and p.s_basis != n.s_basis:
                    assert not got and read == [], (kernel, phase, j)
                    by_section_code += 1
    assert decided >= 4000
    assert by_section_code >= 600


def test_changed_section_code_fails_reuse(rng):
    """The span test implies the rule's section-code clause: wherever the
    children's shortened codes stay equal but the section's own changed,
    the literal rule as written (child-code clause, then span test) still
    rejects.  Arbitrary non-singular kernels and target-profile kernels of
    the random search, at every width 2..16, on the oracle trees."""
    kernels = [random_kernel(ell, rng) for ell in range(2, 17) for _ in range(8)]
    for ell in range(2, 17):
        target = pdp.target_profile(ell)
        built = (search.random_trial(target, np.random.default_rng([7, ell, t])) for t in range(4))
        kernels += [kernel for kernel in built if kernel is not None]
    pairs = 0
    for kernel in kernels:
        oracle = [oracle_sections(tree) for tree in oracle_section_trees(kernel)]
        for prev, nxt in zip(oracle, oracle[1:]):
            for p, n in zip(prev, nxt, strict=True):
                children_equal = all(a.s_basis == b.s_basis for a, b in zip(p.children, n.children))
                if p.children and children_equal and p.s_basis != n.s_basis:
                    assert not oracle_reuse_eligible(p, n), kernel
                    pairs += 1
    assert pairs >= 1000


def test_widened_sections_fail_reuse_by_the_phase_column(rng):
    """`widened` is the rank comparison from scratch: rows phase.. against
    rows phase+1.., both taken on the section's columns.  A widened
    section's v-representatives (built from scratch) carry the phase
    column, so the literal rule rejects it without reading them."""
    decided = 0  # widened pairs that reach the representatives' test
    for ell in range(2, 17):
        for _ in range(4):
            kernel = random_kernel(ell, rng)
            table = section_trees(kernel)
            oracle = [oracle_sections(tree) for tree in oracle_section_trees(kernel)]
            for phase, (widened, want) in enumerate(zip(table.widened, oracle)):
                bits = to_bits(extend_kernel(kernel, phase))
                for j, ((x, y, _, _), o) in enumerate(zip(table.sections, want, strict=True)):
                    section = [row[x:y] for row in bits]
                    assert widened[j] == (naive_rank(section) > naive_rank(section[1:]))
                    if not widened[j]:
                        continue
                    assert any(r & 1 for r in o.v_reps), (kernel, phase, x, y)
                    if phase:
                        p = oracle[phase - 1][j]
                        assert not oracle_reuse_eligible(p, o), (kernel, phase, x, y)
                        decided += not o.is_leaf and all(
                            a.s_basis == b.s_basis for a, b in zip(p.children, o.children)
                        )
    assert decided >= 1000


def test_root_never_reuse_eligible(rng):
    """The root's v-representative carries the phase column, which the
    previous phase forms only from its own row, so the reuse walk may
    start below the root."""
    for _ in range(40):
        ell = int(rng.integers(2, 13))
        kernel = random_kernel(ell, rng)
        table = section_trees(kernel)
        for phase in range(1, ell):
            assert not table.reuse_eligible(phase, len(table.sections) - 1)


def test_last_phase_w_zero_everywhere(rng):
    """The last phase decodes a one-row code, so no node can gain
    shortened dimension over its children."""
    for _ in range(20):
        ell = int(rng.integers(2, 13))
        kernel = random_kernel(ell, rng)
        table = section_trees(kernel)
        for (_, _, _, halves), w, v in zip(table.sections, table.w[ell - 1], table.v[ell - 1]):
            assert w == 0
            if halves:
                assert comb_cost(w, v) == (1 << v)


def test_reuse_only_removes_cost(rng):
    for _ in range(15):
        ell = int(rng.integers(2, 9))
        kernel = random_kernel(ell, rng)
        none = total_complexity(kernel, ReuseMode.NONE).total
        for mode in (ReuseMode.ALL_CONTIGUOUS, ReuseMode.SECTION_TABLES):
            assert total_complexity(kernel, mode).total <= none


def test_report_total_is_per_phase_sum(rng):
    for _ in range(10):
        kernel = random_kernel(int(rng.integers(2, 9)), rng)
        report = total_complexity(kernel)
        assert report.total == sum(p.cost for p in report.per_phase)
        table = section_trees(kernel)
        w, v = table.w[0], table.v[0]
        charged = [comb_cost(w[j], v[j]) for j, section in enumerate(table.sections) if section[3]]
        assert sum(charged) == report.per_phase[0].cost


def test_first_phase_never_reuses(rng):
    report = total_complexity(random_kernel(8, rng))
    assert report.per_phase[0].reused == ()


def test_arikan_reuse_ineligible():
    """For the 2x2 kernel the root w/v representatives of the second
    phase fall outside the first phase's span, so nothing is reused."""
    table = section_trees(ARIKAN)
    assert not table.reuse_eligible(1, len(table.sections) - 1)  # the root
    report = total_complexity(ARIKAN)
    assert all(p.reused == () for p in report.per_phase)


def test_reuse_eligible_requires_matching_interval():
    """The rule compares a section with the same section of the previous
    phase, which phase 0 and phases past the last do not have."""
    table = section_trees(ARIKAN)
    root = len(table.sections) - 1
    with pytest.raises(ValueError):
        table.reuse_eligible(0, root)
    with pytest.raises(ValueError):
        table.reuse_eligible(2, root)  # ARIKAN has phases 0 and 1


def test_reference_totals_under_shipped_policy():
    """Pinned values of this evaluator (the published 1396 for BEST16 is
    not reproduced by any policy; see the acceptance suite)."""
    assert total_complexity(BEST12, CALIBRATED_MODE).total == 1264
    assert total_complexity(BEST16, CALIBRATED_MODE).total == 2300
    assert total_complexity(BEST12, ReuseMode.NONE).total == 1354
    assert total_complexity(BEST16, ReuseMode.NONE).total == 2434
    assert total_complexity(BEST12, ReuseMode.SECTION_TABLES).total == 860
    assert total_complexity(BEST16, ReuseMode.SECTION_TABLES).total == 1332


def _add_lower_rows(kernel: BitMatrix, rng, count: int) -> BitMatrix:
    """Random lower-unitriangular row operations: each adds a lower row to
    a higher one, so every phase keeps the row space of its rows."""
    rows = list(kernel.rows)
    for _ in range(count):
        i, j = sorted(rng.choice(len(rows), size=2, replace=False))
        rows[i] ^= rows[j]
    return BitMatrix(kernel.ncols, tuple(rows))


def test_costs_invariant_under_lower_row_operations(rng):
    """NONE and SECTION_TABLES cost the decoder, not the representatives:
    equivalent kernels have the same section codes and the same totals."""
    for ell in range(2, 17):
        for _ in range(3):
            kernel = random_kernel(ell, rng)
            other = _add_lower_rows(kernel, rng, 2 * ell)
            a, b = section_trees(kernel), section_trees(other)
            assert (a.s_basis, a.w, a.v) == (b.s_basis, b.w, b.v)
            for policy in (ReuseMode.NONE, ReuseMode.SECTION_TABLES):
                want = total_complexity(kernel, policy).total
                assert total_complexity(other, policy).total == want


def test_all_contiguous_depends_on_representatives():
    """The literal reuse rule compares spans of the representatives, so a
    row operation that keeps every phase's code changes its total (README,
    "Representative dependence")."""
    rows = list(BEST16.rows)
    rows[0] ^= rows[1]
    equivalent = BitMatrix(16, tuple(rows))
    assert total_complexity(equivalent, ReuseMode.ALL_CONTIGUOUS).total == 2294  # BEST16: 2300
    assert total_complexity(equivalent, ReuseMode.NONE).total == 2434
    assert total_complexity(equivalent, ReuseMode.SECTION_TABLES).total == 1332


def test_section_tables_square_of_arikan():
    """F (x) F with butterfly pairs in adjacent columns costs what SC
    decoding does: three f-merges, one g, two g plus one f, one g.  With
    the pairs split across the halves, phase 1 takes its half-section
    tables from the sums of phase 0."""
    adjacent = total_complexity(BitMatrix(4, (0x1, 0x5, 0x3, 0xF)), ReuseMode.SECTION_TABLES)
    assert [p.cost for p in adjacent.per_phase] == [18, 2, 10, 2]
    assert [p.reused for p in adjacent.per_phase] == [(), ((0, 2), (2, 4)), (), ((0, 2), (2, 4))]
    split = total_complexity(BitMatrix(4, (0x1, 0x3, 0x5, 0xF)), ReuseMode.SECTION_TABLES)
    assert [p.cost for p in split.per_phase] == [18, 14, 6, 2]


def _code_words(rows: list[tuple[int, ...]], ell: int) -> list[tuple[int, ...]]:
    return naive_span(rows) if rows else [(0,) * ell]


def _shortened(words: list[tuple[int, ...]], x: int, y: int) -> set[tuple[int, ...]]:
    """Section parts of the words that vanish outside [x, y)."""
    return {w[x:y] for w in words if not any(w[:x]) and not any(w[y:])}


def _coset_table(words, code, llrs, x, y) -> dict[frozenset, float]:
    """Max correlation metric per coset of `code` (section words) over the
    section parts of `words`, keyed by the coset as a set of words."""
    table: dict[frozenset, float] = {}
    for w in words:
        part = w[x:y]
        coset = frozenset(tuple(a ^ b for a, b in zip(part, c)) for c in code)
        metric = sum(0.5 * l * (1 - 2 * b) for l, b in zip(llrs[x:y], part))
        table[coset] = max(table.get(coset, -float("inf")), metric)
    return table


def test_section_tables_reuse_matches_enumerated_tables(rng):
    """Differential oracle: every table SECTION_TABLES takes as reused,
    enumerated from scratch on the section with the decisions' offset,
    is a restriction of a table the previous phase held: its own table,
    or, where it computed the node, its pre-comparison sums (the table of
    S_left + S_right)."""
    checked = 0
    for _ in range(40):
        ell = int(rng.integers(2, 9))
        kernel = random_kernel(ell, rng)
        rows = [tuple(r) for r in to_bits(kernel)]
        llrs = rng.normal(size=ell)
        decisions = [int(b) for b in rng.integers(0, 2, size=ell)]
        report = total_complexity(kernel, ReuseMode.SECTION_TABLES)

        def translate(i):
            offset = [0] * ell
            for b, row in zip(decisions[:i], rows):
                if b:
                    offset = [a ^ c for a, c in zip(offset, row)]
            return [tuple(a ^ c for a, c in zip(offset, w)) for w in _code_words(rows[i:], ell)]

        for i in range(1, ell):
            prev_reused = report.per_phase[i - 1].reused
            for x, y in report.per_phase[i].reused:
                assert (x, y) != (0, ell)  # the root is always recomputed
                z = split_point(x, y)
                needed = _coset_table(
                    translate(i), _shortened(_code_words(rows[i + 1 :], ell), x, y), llrs, x, y
                )
                below = _code_words(rows[i:], ell)  # flag 0 at phase i - 1
                held = [_coset_table(translate(i - 1), _shortened(below, x, y), llrs, x, y)]
                if not any(a <= x and y <= b for a, b in prev_reused):
                    sums_code = {
                        l_part + r_part
                        for l_part in _shortened(below, x, z)
                        for r_part in _shortened(below, z, y)
                    }
                    held.append(_coset_table(translate(i - 1), sums_code, llrs, x, y))
                assert any(
                    all(k in table and abs(table[k] - v) <= 1e-12 for k, v in needed.items())
                    for table in held
                ), (kernel, i, (x, y))
                checked += 1
    assert checked >= 50


#: sha256 of the reports below, which reuse 821 sections
PINNED_WIDE_REPORTS = "94107b683c8c693f4c3cca404742e3255f0d705accceb135405c90e441daf8c9"


def test_wide_reports_pinned():
    """The literal rule at ell 13..16, beside the oracle comparison of
    `test_reuse_eligible_matches_literal_rule`: reports of seeded random
    kernels under the policy that reads the representatives."""
    digest = hashlib.sha256()
    reused = 0
    for ell in range(13, 17):
        rng = np.random.default_rng([17, ell])
        for _ in range(25):
            report = total_complexity(random_kernel(ell, rng), ReuseMode.ALL_CONTIGUOUS)
            reused += sum(len(p.reused) for p in report.per_phase)
            digest.update(json.dumps(report.to_json_dict()).encode())
    assert reused >= 500  # the reports do reuse sections
    assert digest.hexdigest() == PINNED_WIDE_REPORTS


def test_cached_total_matches_report(rng):
    for _ in range(10):
        kernel = random_kernel(int(rng.integers(2, 7)), rng)
        assert total_complexity_cached(kernel) == total_complexity(kernel, CALIBRATED_MODE).total


def test_size_bounds():
    """Widths 1 and 17 fail the model before its rank test, singular or
    not, with the error that `total_complexity` and the decoder share."""
    for ell in (1, 17):
        identity = tuple(1 << (ell - 1 - i) for i in range(ell))
        for rows in (identity, (0,) * ell):
            for build in (section_trees, total_complexity):
                with pytest.raises(ValueError, match=rf"^unsupported kernel size ell={ell};"):
                    build(BitMatrix(ell, rows))


def test_report_json_dict_shape():
    d = total_complexity(ARIKAN).to_json_dict()
    assert set(d) == {"ell", "policy", "total", "per_phase"}
    assert d["ell"] == 2
    assert {"phase", "cost", "reused"} == set(d["per_phase"][0])
