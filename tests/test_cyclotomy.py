import cmath

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclodes import cyclotomy as cy
from cyclodes import ff
from oracles import (CANONICAL_PAIRS, EQUALITY_ROWS, ORDER4_LAYOUT, ORDER4_ROWS,
                     cubic_residue_02_check, discrete_logs, m1_b_sign, overlap_y_sign)


def reduce_mod_phi12(poly):
    """Remainder of an integer polynomial (coefficients low to high) by long
    division by Phi_12(x) = x**4 - x**2 + 1, padded to four coefficients."""
    rem = list(poly) + [0] * max(0, 4 - len(poly))
    for top in range(len(rem) - 1, 3, -1):
        c, rem[top] = rem[top], 0      # subtract c * x**(top-4) * Phi_12
        rem[top - 2] += c
        rem[top - 4] -= c
    return rem[:4]


def hermitian_square(z) -> int:
    """|z|**2 = z * conj(z) for z = (c0, c1, c2, c3) in Z[beta], which must be
    a rational integer here.

    Conjugation is beta -> beta**11: z evaluated at x**11, then reduced.  The
    product is the schoolbook product, reduced by long division.  Raises if
    it is not a rational integer (never the case for the Jacobi sums this is
    used on).
    """
    conj = [0] * 34
    for k, c in enumerate(z):
        conj[11 * k] = c
    conj = reduce_mod_phi12(conj)
    product = [0] * 7
    for i in range(4):
        for j in range(4):
            product[i + j] += z[i] * conj[j]
    prod = reduce_mod_phi12(product)
    if prod[1:] != [0, 0, 0]:
        raise ArithmeticError(f"|z|^2 not a rational integer: {prod}")
    return prod[0]


def orbit_sizes(d: int) -> np.ndarray:
    """sizes[r]: how many of the d*d cells have the flat representative r."""
    return np.bincount(cy.orbit_representatives(d).ravel(), minlength=d * d)


def expanded_rows(rows: dict, d: int) -> list[list[tuple[int, ...]]]:
    """The coefficient row of every cell (h, k), read at its representative."""
    return [[rows[divmod(r, d)] for r in line]
            for line in cy.orbit_representatives(d).tolist()]


# ---------------------------------------------------------------------------
# classes and counting
# ---------------------------------------------------------------------------

def test_classes_q13_d12_are_singletons():
    s = cy.build_classes(13, 12, 2)
    expected = {0: {1}, 1: {2}, 2: {4}, 3: {8}, 4: {3}, 5: {6},
                6: {12}, 7: {11}, 8: {9}, 9: {5}, 10: {10}, 11: {7}}
    for i, members in expected.items():
        assert set(s.members_by_class()[i]) == members


def test_classes_q13_d2_quadratic_residues():
    s = cy.build_classes(13, 2, 2)
    assert set(s.members_by_class()[0]) == {1, 4, 9, 3, 12, 10}


def test_classes_d1_full_group():
    s = cy.build_classes(13, 1, 2)
    assert set(s.members_by_class()[0]) == set(range(1, 13))


def test_classes_reject_bad_d():
    with pytest.raises(ValueError):
        cy.build_classes(13, 5)


def test_classes_partition_property():
    for q, d in ((37, 12), (61, 4), (29, 4), (41, 8)):
        s = cy.build_classes(q, d)
        sizes = [len(s.members_by_class()[i]) for i in range(d)]
        assert sizes == [s.f] * d


def test_cyclotomic_numbers_q13_d12():
    s = cy.build_classes(13, 12, 2)
    t = cy.cyclotomic_numbers(s)
    assert t[1, 4] == 1     # D_1 + 1 = {3} = D_4
    assert t[0, 2] == 0     # D_0 + 1 = {2}, D_2 = {4}
    assert t.sum() == 13 - 2


def test_cyclotomic_total_is_q_minus_2():
    for q, d in ((37, 12), (29, 4), (61, 12), (43, 6)):
        s = cy.build_classes(q, d)
        assert cy.cyclotomic_numbers(s).sum() == q - 2


def test_row_sum_identity():
    # sum_n (h,n)_d = f - [h = class of -1]
    for q, d in ((13, 12), (37, 12), (29, 4), (41, 8), (43, 6), (17, 4)):
        s = cy.build_classes(q, d)
        t = cy.cyclotomic_numbers(s)
        for h, rs in enumerate(t.sum(axis=1).tolist()):
            assert rs == s.f - (1 if h == s.minus_one_class else 0)


# ---------------------------------------------------------------------------
# quadratic partitions
# ---------------------------------------------------------------------------

def test_partition_q13():
    p = cy.quadratic_partitions(13)
    assert (p.x, p.y_abs, p.A, p.B_abs) == (-3, 1, 1, 2)


def test_partition_q37():
    # 37 = 1 + 4*9 = 25 + 3*4; A = -5 since -5 = 1 (mod 6) while 5 = 5
    p = cy.quadratic_partitions(37)
    assert (p.x, p.y_abs, p.A, p.B_abs) == (1, 3, -5, 2)


def test_partition_q29_order4_use():
    # the order-4 parameters s, |t| are x, |y|
    p = cy.quadratic_partitions(29)
    assert (p.x, p.y_abs) == (5, 1)


def test_partition_uniqueness_and_congruences():
    for q in (13, 37, 61, 109, 157, 229, 277):
        p = cy.quadratic_partitions(q)
        assert p.x * p.x + 4 * p.y_abs ** 2 == q and p.x % 4 == 1
        assert p.A * p.A + 3 * p.B_abs ** 2 == q and p.A % 6 == 1


# ---------------------------------------------------------------------------
# ring arithmetic and Jacobi sums
# ---------------------------------------------------------------------------

def test_beta_relations():
    # beta**k by repeated _times_beta equals x**k reduced by long division
    z = (1, 0, 0, 0)
    for k in range(24):
        assert z == tuple(reduce_mod_phi12([0] * k + [1])), k
        z = cy._times_beta(z)


def test_ring_against_complex_arithmetic():
    # independent oracle: evaluate at beta = exp(i*pi/6) in floating point
    beta = cmath.exp(1j * cmath.pi / 6)
    s = cy.build_classes(37, 12, 2)
    phi = cy.jacobi_sum(s, 3, 1)
    assert abs(abs(sum(c * beta ** k for k, c in enumerate(phi))) ** 2 - 37) < 1e-9
    assert hermitian_square(phi) == 37


def test_jacobi_sum_trivial_character():
    s = cy.build_classes(13, 12, 2)
    assert cy.jacobi_sum(s, 0, 0) == (11, 0, 0, 0)   # q - 2 terms, all 1


def test_jacobi_sum_value_q13():
    # phi(beta^3, beta) at q=13, g=2 computed by hand: -2 - 3*beta^3
    s = cy.build_classes(13, 12, 2)
    assert cy.jacobi_sum(s, 3, 1) == (-2, 0, 0, -3)
    assert cy.jacobi_sum(s, 5, 1) == (-3, 0, 0, 2)


def direct_jacobi_sum(s, m, n):
    """The oracle: beta**(m*Ind(a) + n*Ind(1 - a)) summed over a in [2, q-1]."""
    q, ind = s.q, discrete_logs(s.index).tolist()
    weight = [0] * 12
    for a in range(2, q):
        weight[(m * ind[a] + n * ind[q + 1 - a]) % 12] += 1
    return tuple(reduce_mod_phi12(weight))


ORDER12_PRIMES = [q for q in range(13, 3000, 12) if ff.is_prime(q)]


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.sampled_from([q for q in ORDER12_PRIMES if q % 24 == 13]),    # f odd
                 st.sampled_from([q for q in ORDER12_PRIMES if q % 24 == 1])))    # f even
@example(13)    # f = 1 odd
@example(73)    # f = 6 even
def test_jacobi_sum_table_route_equals_direct_sum(q):
    s = cy.build_classes(q, 12)
    for m in range(12):
        for n in range(12):
            assert cy.jacobi_sum(s, m, n) == direct_jacobi_sum(s, m, n), (q, m, n)


def test_jacobi_norms_are_q():
    for q in (13, 37):
        s = cy.build_classes(q, 12)
        for m in range(12):
            for n in range(12):
                if m % 12 and n % 12 and (m + n) % 12:
                    assert hermitian_square(cy.jacobi_sum(s, m, n)) == q


def test_c_parameter_q13():
    s = cy.build_classes(13, 12, 2)
    assert cy.c_parameter(s) == 3     # c = beta^3


def test_c_parameter_consistency_with_case():
    # q=37 falls in case 4, whose c value is -1 = beta^6
    s = cy.build_classes(37, 12, 2)
    case = cy.classify_case(s)
    assert case.case_number == 4
    assert cy.c_parameter(s) == 6


def direct_jacobi_sum_complex(s, m, n):
    """The direct a + b = 1 sum evaluated at beta = exp(i*pi/6) in floating
    point, sharing no arithmetic with Z[beta]."""
    q, ind = s.q, discrete_logs(s.index).tolist()
    return sum(cmath.exp(1j * cmath.pi * (m * ind[a] + n * ind[q + 1 - a]) / 6)
               for a in range(2, q))


def test_c_parameter_equals_complex_ratio_below_5000():
    # J(3,1) = beta**c J(5,1) at every f-odd order-12 prime below 5000
    for q in range(13, 5000, 24):
        if not ff.is_prime(q):
            continue
        s = cy.build_classes(q, 12)
        ratio = direct_jacobi_sum_complex(s, 3, 1) / direct_jacobi_sum_complex(s, 5, 1)
        assert abs(ratio - cmath.exp(1j * cmath.pi * cy.c_parameter(s) / 6)) < 1e-9, q


# ---------------------------------------------------------------------------
# case classification
# ---------------------------------------------------------------------------

def test_classify_case_q13():
    s = cy.build_classes(13, 12, 2)
    case = cy.classify_case(s)
    assert (case.M, case.M_prime) == (1, 4)      # 2 = g^1, 3 = 2^4 = 16 (mod 13)
    assert (case.M_prime % 4, case.M % 6) == (0, 1)
    assert case.case_number == 1


def test_classify_case_outside_table():
    # q=109 has c = beta^9, not covered by the six-way split
    s = cy.build_classes(109, 12)
    case = cy.classify_case(s)
    assert case.c_index == 9
    assert case.case_number == cy.OUTSIDE_TABLE


def test_classify_case_rejects_f_even():
    s = cy.build_classes(73, 12)     # f = 6
    with pytest.raises(ValueError):
        cy.classify_case(s)


# ---------------------------------------------------------------------------
# equality table
# ---------------------------------------------------------------------------

def test_orbit_representative_examples():
    rep = cy.orbit_representatives(12)
    assert divmod(int(rep[6, 4]), 12) == (2, 2)
    assert divmod(int(rep[4, 10]), 12) == (0, 2)
    assert divmod(int(rep[0, 5]), 12) == (0, 5)


def test_equality_table_shape():
    sizes = orbit_sizes(12)
    cells = np.flatnonzero(sizes)
    assert cells.tolist() == [h * 12 + k for h, k in CANONICAL_PAIRS]
    assert sizes.sum() == 144
    assert sizes[6] == 1 and sizes[4 * 12 + 2] == 2
    assert all(sizes[r] == 3 for r in cells if r < 12 and r != 6)
    assert all(sizes[r] == 6 for r in cells if 1 <= r // 12 <= 3)
    assert np.bincount(sizes[cells]).tolist() == [0, 1, 1, 11, 0, 0, 18]


def test_canonical_pairs_carry_their_own_label():
    rep = cy.orbit_representatives(12)
    for h, k in CANONICAL_PAIRS:
        assert rep[h, k] == h * 12 + k


def test_derived_layouts_equal_the_transcription():
    digits = "0123456789XY"
    assert [f"{r // 12}{digits[r % 12]}" for r in cy.orbit_representatives(12).ravel().tolist()] \
        == EQUALITY_ROWS
    # the matrices are keyed by exactly the 31 and 5 representative cells
    for rows, d in ((cy.M1_MATRIX, 12), (cy._ORDER4_ROWS, 4)):
        assert sorted(rows) == [divmod(r, d) for r in np.flatnonzero(orbit_sizes(d))]
    assert expanded_rows(cy._ORDER4_ROWS, 4) == [[ORDER4_ROWS[v] for v in line]
                                                  for line in ORDER4_LAYOUT]
    assert len(np.unique(cy.orbit_representatives(4))) == 5
    assert len(np.unique(cy.orbit_representatives(12))) == 31
    with pytest.raises(ValueError):
        cy.orbit_representatives(3)


# Every odd prime below 20,000 but q = 1 (mod 32) has an even d <= 16 with
# d | q - 1 and f = (q - 1)/d odd: d = 2**v, 2**v the power of 2 in q - 1.
F_ODD_PRIMES = [q for q in range(3, 20000, 2) if ff.is_prime(q) and (q - 1) % 32]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(F_ODD_PRIMES))
@example(13)    # d = 4 and 12 at f = 3 and 1
def test_counted_tables_are_constant_on_the_f_odd_orbits(q):
    orders = [d for d in range(2, 17, 2) if (q - 1) % d == 0 and (q - 1) // d % 2]
    assert orders
    for d in orders:
        table = cy.build_classes(q, d).table
        assert np.array_equal(table, table.ravel()[cy.orbit_representatives(d)]), (q, d)


# ---------------------------------------------------------------------------
# coefficient matrix
# ---------------------------------------------------------------------------

def test_m1_global_identities():
    # multiplicity-weighted sum over all 144 cells must equal 144q - 288
    # (total q - 2), and each coefficient of A, B, x, y must cancel.
    sizes = orbit_sizes(12)
    acc = [0] * 6
    for (h, k), row in cy.M1_MATRIX.items():
        for i, c in enumerate(row):
            acc[i] += int(sizes[h * 12 + k]) * c
    assert acc == [144, 0, 0, 0, 0, -288]


def test_m1_row_sum_identities():
    # sum_k 144*(h,k) = 12(q-1) - 144*[h=6]
    for h, line in enumerate(expanded_rows(cy.M1_MATRIX, 12)):
        want_const = -12 - (144 if h == 6 else 0)
        assert [sum(col) for col in zip(*line)] == [12, 0, 0, 0, 0, want_const], h


def test_m1_example_rows():
    assert cy.M1_MATRIX[0, 0] == (1, -6, 0, 0, -16, -23)
    assert cy.M1_MATRIX[0, 3] == (1, 18, 0, 0, 32, 1)
    assert cy.M1_MATRIX[4, 2] == (1, 4, 24, -18, -24, 1)


def test_m1_matches_counts_q13():
    s = cy.build_classes(13, 12, 2)
    part = cy.resolve_signs(s, cy.quadratic_partitions(13))
    assert part.y_signed == -1
    assert part.B_signed == 2
    predicted = cy.m1_predicted(13, part)
    assert predicted.dtype == np.int64 and not predicted.flags.writeable
    assert np.array_equal(predicted, cy.cyclotomic_numbers(s))
    # in case 1 the cells (0,2) and (0,5) (and a few others) coincide numerically
    assert predicted[0, 2] == predicted[0, 5]


def test_m1_requires_signs():
    part = cy.quadratic_partitions(13)
    with pytest.raises(ValueError):
        cy.m1_predicted(13, part)


def test_case1_check_reads_all_144_cells(monkeypatch):
    # (2,9) and (8,3) lie in no representative cell and differ at q = 13.
    # Swapping them keeps J(3,1) and J(5,1), so the case stays 1, but the
    # table no longer equals M1_MATRIX's.
    count = cy.cyclotomic_numbers

    def swapped(sys_):
        table = count(sys_).copy()
        table[2, 9], table[8, 3] = table[8, 3], table[2, 9]
        return table

    monkeypatch.setattr(cy, "cyclotomic_numbers", swapped)
    for q in (13, 709, 757):
        s = cy.build_classes(q, 12)
        assert s.table[2, 9] != s.table[8, 3]
        assert cy.classify_case(s).case_number == 1
        with pytest.raises(ArithmeticError, match=f"q={q}"):
            cy.resolve_signs(s, cy.quadratic_partitions(q))


def test_order4_matrix_row_sums():
    # sum_k 16*(h,k)_4 = 4(q-1) - 16*[h=2]: -1 lies in class 2 (f odd)
    for h, line in enumerate(expanded_rows(cy._ORDER4_ROWS, 4)):
        assert [sum(col) for col in zip(*line)] == [4, 0, 0, -4 - 16 * (h == 2)], h


def test_order4_numbers_equal_counted_tables_below_5000():
    # with t pinned by resolve_signs, the matrix is the counted d=4 table at
    # every q = 5 (mod 8) prime below 5000
    primes = [q for q in range(5, 5000, 8) if ff.is_prime(q)]
    assert len(primes) == 168
    for q in primes:
        s = cy.build_classes(q, 4)
        part = cy.resolve_signs(s, cy.quadratic_partitions(q))
        assert cy.order4_numbers(part) == s.table.tolist(), q


def test_order4_numbers_refuse_what_they_cannot_price():
    with pytest.raises(ValueError):         # t's sign not resolved
        cy.order4_numbers(cy.quadratic_partitions(13))
    with pytest.raises(ValueError):         # q = 1 (mod 8): f even
        cy.order4_numbers(cy.QuadraticPartition(q=17, x=1, y_abs=2, y_signed=2))
    with pytest.raises(ArithmeticError, match="q=13"):    # 13 = 9 + 4, not 1 + 4
        cy.order4_numbers(cy.QuadraticPartition(q=13, x=1, y_abs=1, y_signed=1))


def test_resolve_signs_q37():
    s = cy.build_classes(37, 12, 2)
    part = cy.resolve_signs(s, cy.quadratic_partitions(37))
    assert abs(part.y_signed) == 3
    assert part.y_signed == 3
    assert part.B_signed == 2


def test_resolve_signs_pins_t_at_order4_as_y_at_order12():
    # every f-odd order-12 prime is an f-odd order-4 prime, where the same
    # root g**((q-1)/4) pins t = y; B belongs to order 12 alone
    for q in (13, 37, 61, 109, 157):
        part = cy.quadratic_partitions(q)
        at4 = cy.resolve_signs(cy.build_classes(q, 4), part)
        at12 = cy.resolve_signs(cy.build_classes(q, 12), part)
        assert at4.y_signed == at12.y_signed, q
        assert at4.B_signed is None and at12.B_signed is not None, q
    for q, d in ((17, 4), (73, 12), (37, 6)):   # f even at 17 and 73, d = 6 at 37
        with pytest.raises(ValueError, match="order 4 or 12 with f odd"):
            cy.resolve_signs(cy.build_classes(q, d), cy.quadratic_partitions(q))


def assert_congruence_signs_equal_the_fits(bound: int) -> tuple[int, int]:
    """At every f-odd order-12 prime below bound: exactly one sign meets each
    congruence of resolve_signs, and the signs it pins equal the fits to the
    table, y at every prime and B at the case-1 primes.  Returns the number
    of primes and of case-1 primes."""
    primes = [q for q in range(13, bound, 24) if ff.is_prime(q)]
    case1 = 0
    for q in primes:
        s = cy.build_classes(q, 12)
        part = cy.resolve_signs(s, cy.quadratic_partitions(q))
        i4, r3 = pow(s.g, 3 * s.f, q), 2 * pow(s.g, 4 * s.f, q) + 1
        assert i4 * i4 % q == q - 1 and r3 * r3 % q == q - 3, q
        for value, v_abs, root in ((part.x, part.y_abs, 2 * i4), (part.A, part.B_abs, r3)):
            assert sum((value - v * root) % q == 0 for v in (v_abs, -v_abs)) == 1, q
        assert part.y_signed == overlap_y_sign(s, part.y_abs), q
        if cy.classify_case(s).case_number == 1:
            case1 += 1
            assert part.B_signed == m1_b_sign(s, part), q
    return len(primes), case1


def test_congruence_signs_equal_the_fits_below_20000():
    assert assert_congruence_signs_equal_the_fits(20000) == (288, 40)


def test_congruence_sign_refuses_a_wrong_root():
    assert cy.congruence_sign(-3, 1, 2 * 8, 13) == -1        # 8 = 2**3, 8**2 = -1 (mod 13)
    with pytest.raises(ArithmeticError):
        cy.congruence_sign(-3, 1, 2 * 4, 13)


def test_cubic_residue_02_predicate():
    # q=229: Ind(2) = 0 (mod 3) and Ind(3) = 0 (mod 4), so the side
    # conditions hold and some B sign satisfies the identity
    s = cy.build_classes(229, 12)
    part = cy.quadratic_partitions(229)
    signs = cubic_residue_02_check(s, part)
    assert signs is not None and len(signs) >= 1
    # q=13: 2 is not a cubic residue (Ind(2) = 1), so the predicate is off
    s13 = cy.build_classes(13, 12, 2)
    assert cubic_residue_02_check(s13, cy.quadratic_partitions(13)) is None


@pytest.mark.parametrize("d", [4, 6])
def test_cubic_residue_02_check_refuses_other_orders(d):
    # (0,2)_d at order 4 or 6 is no order-12 number: at q=229 the identity
    # would read set() at d=4 and None at d=6
    s = cy.build_classes(229, d)
    with pytest.raises(ValueError, match="order 12"):
        cubic_residue_02_check(s, cy.quadratic_partitions(229))
