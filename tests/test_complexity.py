"""Section trees, combination costs, and reuse policies."""

from __future__ import annotations

import pytest

from polarkit.complexity import (
    CALIBRATED_MODE,
    ReuseMode,
    SectionNode,
    build_section_tree,
    comb_cost,
    extend_kernel,
    reuse_eligible,
    section_trees,
    split_point,
    total_complexity,
    total_complexity_cached,
)
from polarkit.gf2 import BitMatrix
from polarkit.pdp import SingularKernelError
from polarkit.reference import ARIKAN, BEST12, BEST16
from tests.conftest import naive_rank, naive_span, random_kernel


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


def test_root_v_is_one_every_phase(rng):
    for _ in range(20):
        ell = int(rng.integers(2, 9))
        kernel = random_kernel(ell, rng)
        for phase in range(ell):
            tree = build_section_tree(extend_kernel(kernel, phase))
            assert tree.v == 1


def test_dimension_monotonicity(rng):
    for _ in range(20):
        ell = int(rng.integers(2, 13))
        kernel = random_kernel(ell, rng)
        phase = int(rng.integers(0, ell))
        tree = build_section_tree(extend_kernel(kernel, phase))
        for node in _nodes(tree):
            assert node.k_p >= node.k_s
            if not node.is_leaf:
                left, right = node.children
                assert node.k_s >= left.k_s + right.k_s
                assert node.w == node.k_s - left.k_s - right.k_s


def test_node_dimensions_match_enumeration(rng):
    """Naive oracle for every node: k_s counts the code words that vanish
    outside the section, k_p ranks the rows projected onto it, and w and v
    follow from them by their definitions."""
    for _ in range(12):
        ell = int(rng.integers(2, 11))
        kernel = random_kernel(ell, rng)
        for phase in range(ell):
            ext = extend_kernel(kernel, phase)
            bits = ext.to_bits()
            words = naive_span(bits)
            tree = build_section_tree(ext)
            k_s = {}
            for node in _nodes(tree):
                x, y = node.x, node.y
                shortened = [w for w in words if not any(w[:x]) and not any(w[y:])]
                k_s[x, y] = len(shortened).bit_length() - 1
                k_p = naive_rank([row[x:y] for row in bits])
                assert (node.k_s, node.k_p, node.v) == (k_s[x, y], k_p, k_p - k_s[x, y])
            for node in _nodes(tree):
                if node.is_leaf:
                    assert node.w == 0
                else:
                    left, right = node.children
                    children = k_s[left.x, left.y] + k_s[right.x, right.y]
                    assert node.w == k_s[node.x, node.y] - children


def test_root_never_reuse_eligible(rng):
    """The root's v-representative carries the phase column, which the
    previous phase forms only from its own row, so the reuse walk may
    start below the root."""
    for _ in range(40):
        ell = int(rng.integers(2, 13))
        kernel = random_kernel(ell, rng)
        roots = [build_section_tree(extend_kernel(kernel, i)) for i in range(ell)]
        for prev, nxt in zip(roots, roots[1:]):
            assert not reuse_eligible(prev, nxt)


def test_last_phase_w_zero_everywhere(rng):
    """The last phase decodes a one-row code, so no node can gain
    shortened dimension over its children."""
    for _ in range(20):
        ell = int(rng.integers(2, 13))
        kernel = random_kernel(ell, rng)
        tree = build_section_tree(extend_kernel(kernel, ell - 1))
        for node in _nodes(tree):
            assert node.w == 0
            if not node.is_leaf:
                assert node.comb_cost == (1 << node.v)


def test_reuse_only_removes_cost(rng):
    for _ in range(15):
        ell = int(rng.integers(2, 9))
        kernel = random_kernel(ell, rng)
        none = total_complexity(kernel, ReuseMode.NONE).total
        for mode in (ReuseMode.TOP_SECTIONS, ReuseMode.ALL_CONTIGUOUS, ReuseMode.SECTION_TABLES):
            assert total_complexity(kernel, mode).total <= none


def test_report_total_is_per_phase_sum(rng):
    for _ in range(10):
        kernel = random_kernel(int(rng.integers(2, 9)), rng)
        report = total_complexity(kernel)
        assert report.total == sum(p.cost for p in report.per_phase)
        tree = build_section_tree(extend_kernel(kernel, 0))
        assert sum(node.comb_cost for node in _nodes(tree)) == report.per_phase[0].cost


def test_first_phase_never_reuses(rng):
    report = total_complexity(random_kernel(8, rng))
    assert report.per_phase[0].reused == ()


def test_arikan_reuse_ineligible():
    """For the 2x2 kernel the root w/v representatives of the second
    phase fall outside the first phase's span, so nothing is reused."""
    prev = build_section_tree(extend_kernel(ARIKAN, 0))
    nxt = build_section_tree(extend_kernel(ARIKAN, 1))
    assert not reuse_eligible(prev, nxt)
    report = total_complexity(ARIKAN)
    assert all(p.reused == () for p in report.per_phase)


def test_reuse_eligible_requires_matching_interval():
    tree = build_section_tree(extend_kernel(ARIKAN, 0))
    with pytest.raises(ValueError):
        reuse_eligible(tree, tree.children[0])


def test_reference_totals_under_shipped_policy():
    """Pinned values of this evaluator (the published 1396 for BEST16 is
    not reproduced by any policy; see the acceptance suite)."""
    assert total_complexity(BEST12, CALIBRATED_MODE).total == 1264
    assert total_complexity(BEST16, CALIBRATED_MODE).total == 2300
    assert total_complexity(BEST12, ReuseMode.NONE).total == 1354
    assert total_complexity(BEST16, ReuseMode.NONE).total == 2434
    assert total_complexity(BEST12, ReuseMode.TOP_SECTIONS).total == 1292
    assert total_complexity(BEST16, ReuseMode.TOP_SECTIONS).total == 2434
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
            for a, b in zip(section_trees(kernel), section_trees(other)):
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
