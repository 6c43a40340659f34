"""Section trees, combination costs, and reuse policies."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from polarkit import complexity
from polarkit.complexity import (
    CALIBRATED_MODE,
    ReuseMode,
    SectionNode,
    comb_cost,
    extend_kernel,
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
    greedy_selection,
    naive_rank,
    naive_span,
    oracle_reuse_eligible,
    oracle_section_trees,
    oracle_total_complexity,
    random_kernel,
)


def _nodes(tree: SectionNode):
    yield tree
    for child in tree.children:
        yield from _nodes(child)


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


def _node_fields(tree) -> list[tuple]:
    """Every node's fields, and the size, cost and leaf test derived from them."""
    return [
        (n.x, n.y, n.w, n.v, len(n.s_basis), comb_cost(n.w, n.v) if n.children else 0)
        + (not n.children, n.s_basis, n.w_reps, n.v_reps, n.mask, n.phase, len(n.children))
        for n in _nodes(tree)
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
    """Differential oracle: the one-pass table's views equal trees built
    phase by phase from scratch, on every node field (representatives
    included), and each phase's code basis equals the extended kernel's."""
    for kernel in _oracle_kernels(rng):
        table = section_trees(kernel)
        trees, oracle = table.roots(), oracle_section_trees(kernel)
        assert len(trees) == len(oracle) == kernel.ncols
        for phase, (tree, want) in enumerate(zip(trees, oracle)):
            assert _node_fields(tree) == _node_fields(want), (kernel, phase)
            assert table.code_basis(phase) == tuple(row_basis(extend_kernel(kernel, phase).rows))
            for n in _nodes(tree):
                assert n.mask == interval_mask(kernel.ncols + 1, n.x, n.y)


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
            for phase, tree in enumerate(table.roots()):
                code_basis = table.code_basis(phase)
                for n in _nodes(tree):
                    seeds = [r for c in n.children for r in c.s_basis]
                    assert n.w_reps == greedy_selection(seeds, n.s_basis, n.s_basis)
                    projected = [r & n.mask for r in code_basis]
                    assert n.v_reps == greedy_selection(n.s_basis, code_basis, projected)
                    if n.v_reps:
                        stopped += n.v_reps[-1] != code_basis[-1]
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
    """Every internal node of every phase, on BEST12 and random kernels at
    widths 2..8: sum alpha * 2^w + beta of a node is the word that selects
    (w_reps + v_reps)[k] by its bit k, and its entry j in a child's link
    array names the child coset that holds the word on the child's columns:
    the word plus the child's v-representatives selected by j lies there in
    the child's shortened code."""
    kernels = [BEST12] + [random_kernel(ell, rng) for ell in range(2, 9) for _ in range(4)]
    checked = 0
    for kernel in kernels:
        for tree in section_trees(kernel).roots():
            for n in _nodes(tree):
                if not n.children:
                    continue
                generators = n.w_reps + n.v_reps
                for child, link in zip(n.children, n.links, strict=True):
                    assert link.shape == (1 << n.v, 1 << n.w)
                    for index, j in enumerate(link.flat):
                        word = _select(generators, index) ^ _select(child.v_reps, int(j))
                        assert is_subcode([word & child.mask], child.s_basis), (kernel, n)
                        checked += 1
    assert checked > 5000


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
        for tree in section_trees(kernel).roots():
            for n in _nodes(tree):
                n.v_reps  # the first read in a phase builds its code basis
        assert len(built) == kernel.ncols


def test_root_v_is_one_every_phase(rng):
    for _ in range(20):
        ell = int(rng.integers(2, 9))
        kernel = random_kernel(ell, rng)
        for tree in section_trees(kernel).roots():
            assert tree.v == 1


def test_dimension_monotonicity(rng):
    for _ in range(20):
        ell = int(rng.integers(2, 13))
        kernel = random_kernel(ell, rng)
        phase = int(rng.integers(0, ell))
        tree = section_trees(kernel).roots()[phase]
        for node in _nodes(tree):
            assert node.v >= 0  # the punctured code's dimension k_s + v is at least k_s
            if node.children:
                k_s, (left, right) = len(node.s_basis), node.children
                assert k_s >= len(left.s_basis) + len(right.s_basis)
                assert node.w == k_s - len(left.s_basis) - len(right.s_basis)


def test_node_dimensions_match_enumeration(rng):
    """Naive oracle for every node: k_s counts the code words that vanish
    outside the section, k_p ranks the rows projected onto it, and w and v
    follow from them by their definitions."""
    for _ in range(12):
        ell = int(rng.integers(2, 11))
        kernel = random_kernel(ell, rng)
        for phase, tree in enumerate(section_trees(kernel).roots()):
            bits = extend_kernel(kernel, phase).to_bits()
            words = naive_span(bits)
            k_s = {}
            for node in _nodes(tree):
                x, y = node.x, node.y
                shortened = [w for w in words if not any(w[:x]) and not any(w[y:])]
                k_s[x, y] = len(shortened).bit_length() - 1
                k_p = naive_rank([row[x:y] for row in bits])
                assert (len(node.s_basis), len(node.s_basis) + node.v) == (k_s[x, y], k_p)
            for node in _nodes(tree):
                if not node.children:
                    assert node.w == 0
                else:
                    left, right = node.children
                    children = k_s[left.x, left.y] + k_s[right.x, right.y]
                    assert node.w == k_s[node.x, node.y] - children


def test_reuse_eligible_matches_literal_rule(rng):
    """The phase-column shortcut decides exactly as the span test would."""
    decided = 0
    for _ in range(40):
        kernel = random_kernel(int(rng.integers(2, 13)), rng)
        table = section_trees(kernel)
        trees = table.roots()
        for prev, nxt in zip(trees, trees[1:]):
            for p, n in zip(_nodes(prev), _nodes(nxt)):
                got = table.reuse_eligible(n.phase, n.index)
                assert got == oracle_reuse_eligible(p, n), (kernel, p.phase)
                decided += bool(p.children)
    assert decided >= 1000


def test_widened_sections_fail_reuse_by_the_phase_column(rng):
    """`widened` is the rank comparison from scratch: rows phase.. against
    rows phase+1.., both taken on the section's columns.  A widened
    section's v-representatives (built from scratch) carry the phase
    column, so the literal rule rejects it without reading them."""
    decided = 0  # widened pairs that reach the representatives' test
    for ell in range(2, 17):
        for _ in range(4):
            kernel = random_kernel(ell, rng)
            trees = section_trees(kernel).roots()
            oracle = oracle_section_trees(kernel)
            for phase, (tree, want) in enumerate(zip(trees, oracle)):
                bits = extend_kernel(kernel, phase).to_bits()
                for n, o in zip(_nodes(tree), _nodes(want)):
                    section = [row[n.x : n.y] for row in bits]
                    assert n.widened == (naive_rank(section) > naive_rank(section[1:]))
                    if n.widened:
                        assert any(r & 1 for r in o.v_reps), (kernel, phase, n.x, n.y)
            for prev, tree, nxt in zip(oracle, trees[1:], oracle[1:]):
                for p, n, o in zip(_nodes(prev), _nodes(tree), _nodes(nxt)):
                    if n.widened:
                        assert not oracle_reuse_eligible(p, o), (kernel, n.phase, n.x, n.y)
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
        for nxt in table.roots()[1:]:
            assert not table.reuse_eligible(nxt.phase, nxt.index)


def test_last_phase_w_zero_everywhere(rng):
    """The last phase decodes a one-row code, so no node can gain
    shortened dimension over its children."""
    for _ in range(20):
        ell = int(rng.integers(2, 13))
        kernel = random_kernel(ell, rng)
        tree = section_trees(kernel).roots()[ell - 1]
        for node in _nodes(tree):
            assert node.w == 0
            if node.children:
                assert comb_cost(node.w, node.v) == (1 << node.v)


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
        tree = section_trees(kernel).roots()[0]
        charged = [comb_cost(node.w, node.v) for node in _nodes(tree) if node.children]
        assert sum(charged) == report.per_phase[0].cost


def test_first_phase_never_reuses(rng):
    report = total_complexity(random_kernel(8, rng))
    assert report.per_phase[0].reused == ()


def test_arikan_reuse_ineligible():
    """For the 2x2 kernel the root w/v representatives of the second
    phase fall outside the first phase's span, so nothing is reused."""
    table = section_trees(ARIKAN)
    _, nxt = table.roots()
    assert not table.reuse_eligible(1, nxt.index)
    report = total_complexity(ARIKAN)
    assert all(p.reused == () for p in report.per_phase)


def test_reuse_eligible_requires_matching_interval():
    """The rule compares a section with the same section of the previous
    phase, which phase 0 and phases past the last do not have."""
    table = section_trees(ARIKAN)
    tree, _ = table.roots()
    with pytest.raises(ValueError):
        table.reuse_eligible(0, tree.index)
    with pytest.raises(ValueError):
        table.reuse_eligible(2, tree.index)  # ARIKAN has phases 0 and 1


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
            for a, b in zip(section_trees(kernel).roots(), section_trees(other).roots()):
                assert [(n.s_basis, n.w, n.v) for n in _nodes(a)] == [
                    (n.s_basis, n.w, n.v) for n in _nodes(b)
                ]
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
        rows = [tuple(r) for r in kernel.to_bits()]
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
    """The literal rule at ell 13..16, beyond the oracle comparison of
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
        for mode in ReuseMode:
            assert total_complexity_cached(kernel, mode) == total_complexity(kernel, mode).total


def test_size_bounds():
    with pytest.raises(ValueError):
        total_complexity(BitMatrix(1, (1,)))


def test_report_json_dict_shape():
    d = total_complexity(ARIKAN).to_json_dict()
    assert set(d) == {"ell", "policy", "total", "per_phase"}
    assert d["ell"] == 2
    assert {"phase", "cost", "reused"} == set(d["per_phase"][0])
