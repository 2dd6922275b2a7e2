import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from purcell_cool import hamiltonian as ham
from purcell_cool.config import parse_config_text
from purcell_cool.errors import SchemaError

from _dense_hamiltonian import (
    HermitianOperator, angular_momentum_ops, build_hamiltonian, reference_transition_table,
    sector_eigenvectors, spin_operators)
from _frozen import FROZEN

RESONATOR = "resonator: {omega0_hz: 7.408e+9, kappa_int_hz: 2.5e+6, kappa_ext_hz: 3.8e+6}\n"
# the Si:Bi donor of the config defaults
SI_BI = parse_config_text(RESONATOR).spin_system


def test_angular_momentum_algebra():
    for j in (0.5, 4.5):
        jx, jy, jz = angular_momentum_ops(j)
        assert np.allclose(jx @ jy - jy @ jx, 1j * jz, atol=1e-12)
        j2 = jx @ jx + jy @ jy + jz @ jz
        assert np.allclose(j2, j * (j + 1) * np.eye(jx.shape[0]), atol=1e-12)


def test_hermitian_operator_rejects_nonhermitian():
    with pytest.raises(ValueError):
        HermitianOperator(dim=2, entries=np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestDonorSpectrum:
    params = SI_BI

    def test_dimension(self):
        assert len(ham.labeled_eigensystem(self.params, 0.05)) == 20
        assert sector_eigenvectors(self.params, 0.05).shape == (20, 20)
        assert build_hamiltonian(self.params, 0.05).entries.shape == (20, 20)

    def test_commutes_with_fz(self):
        ops = spin_operators(self.params)
        h = build_hamiltonian(self.params, 37e-3).entries
        fz = ops["fz"]
        assert np.linalg.norm(h @ fz - fz @ h) < 1e-3 * np.linalg.norm(h)

    def test_zero_field_manifolds(self):
        levels = ham.labeled_eigensystem(self.params, 0.0)
        f4 = [l for l in levels if l.f == 4]
        f5 = [l for l in levels if l.f == 5]
        assert [len(f4), len(f5)] == FROZEN["zero_field_multiplicities"]
        gap = f5[0].energy - f4[0].energy
        assert abs(gap - FROZEN["zero_field_gap_hz"]) < 1.0
        # every m appears once per manifold
        assert sorted(l.m for l in f4) == list(range(-4, 5))
        assert sorted(l.m for l in f5) == list(range(-5, 6))

    def test_labels_complete_at_field(self):
        levels = ham.labeled_eigensystem(self.params, 62.5e-3)
        assert len({(l.f, l.m) for l in levels}) == 20

    def test_doublet_at_62p5_mt(self):
        table = ham.transition_table(self.params, 62.5e-3)
        by_label = {(t.lower, t.upper): t for t in table}
        t1 = by_label[((4, 0), (5, -1))]
        t2 = by_label[((4, -1), (5, 0))]
        assert abs(t1.frequency - FROZEN["doublet_62p5_freq_hz"][0]) < 5e3
        assert abs(t2.frequency - FROZEN["doublet_62p5_freq_hz"][1]) < 5e3
        assert abs(t1.sx_element - FROZEN["doublet_62p5_sx"][0]) < 1e-6
        assert abs(t2.sx_element - FROZEN["doublet_62p5_sx"][1]) < 1e-6

    def test_selection_rules(self):
        for t in ham.transition_table(self.params, 30e-3):
            assert abs((t.upper[0] - t.lower[0]) * (t.upper[1] - t.lower[1])) == 1
            assert t.frequency > 0
            assert 0 <= t.sx_element <= 0.5 + 1e-12

    def test_matrix_element_floor_drops_weak_lines(self):
        # every |dF . dm| = 1 link the table leaves out is one whose |S_x|,
        # from the dense operator and eigenvectors, is below the floor
        sx_op = spin_operators(self.params)["sx"]
        dropped = 0
        for b0 in FIELDS_T + (WEAK_LINK_FIELD_T,):
            levels = ham.labeled_eigensystem(self.params, b0)
            v = sector_eigenvectors(self.params, b0)
            sx = np.abs(v.T @ sx_op @ v)
            listed = {(t.lower, t.upper) for t in ham.transition_table(self.params, b0)}
            for a, lo in enumerate(levels):
                for b, up in enumerate(levels[a + 1:], a + 1):
                    if (abs(lo.f - up.f) == 1 and abs(lo.m - up.m) == 1
                            and ((lo.f, lo.m), (up.f, up.m)) not in listed):
                        assert sx[a, b] < ham.MATRIX_ELEMENT_FLOOR
                        dropped += 1
        assert dropped > 0


class TestFieldScan:
    params = SI_BI

    def test_six_resonant_groups(self):
        grid = np.linspace(0.0, 0.07, 141)
        field_spec = ham.spectrum_vs_field(self.params, grid, 7.408e9)
        groups = ham.resonance_groups(field_spec.resonances)
        assert len(field_spec.resonances) == FROZEN["n_crossings"]
        assert len(groups) == FROZEN["n_groups"]
        means = sorted(float(np.mean([r.b0 for r in g])) for g in groups)
        assert np.allclose(means, FROZEN["group_mean_fields_t"], atol=2e-5)


class TestHyperfineSplitting:
    params = SI_BI

    def splittings(self, b0):
        """|E(f, m+1) - E(f, m)| within each manifold."""
        levels = ham.labeled_eigensystem(self.params, b0)
        energy = {(lv.f, lv.m): lv.energy for lv in levels}
        return np.array([abs(energy[f, m + 1] - energy[f, m])
                         for f in (4, 5) for m in range(-f, f)])

    def test_zero_field_degenerate(self):
        assert np.all(self.splittings(0.0) < 1.0)

    def test_grows_to_about_150_mhz_at_65_mt(self):
        # the smallest in-manifold splitting reaches the ~150 MHz scale;
        # the largest (Zeeman-dominated edge of the manifold) is larger
        s65 = self.splittings(65e-3)
        assert 135e6 < s65.min() < 165e6
        assert s65.max() > s65.min()

    def test_monotone_between_operating_fields(self):
        assert self.splittings(9.5e-3).max() < self.splittings(65e-3).min()


def test_two_spin_half_matches_breit_rabi():
    """Fictitious S=1/2, I=1/2 system against the closed-form eigenvalues."""
    a = 1.0e9
    ge, gn = 28.0e9, 7.0e6
    params = ham.SpinSystemParams(gamma_e=ge, gamma_n=gn, hyperfine_a=a, i=0.5)
    for b0 in (0.0, 1e-3, 20e-3, 0.1):
        levels = ham.labeled_eigensystem(params, b0)
        w = np.array([lv.energy for lv in levels])
        b = b0 * (ge + gn) / 2
        exact = np.array(sorted([
            a / 4 + b0 * (ge - gn) / 2,
            a / 4 - b0 * (ge - gn) / 2,
            -a / 4 + np.hypot(b, a / 2),
            -a / 4 - np.hypot(b, a / 2),
        ]))
        assert np.allclose(w, exact, rtol=1e-10, atol=1e-4)


FIELDS_T = (0.0, 1e-4, 1.3e-3, 1.68e-3, 9.5e-3, 30e-3, 62.5e-3, 1.0)
WEAK_LINK_FIELD_T = 10.0  # Si:Bi's weakest links fall below the floor here, none up to 5 T


@pytest.mark.parametrize("b0", FIELDS_T)
def test_sector_energies_match_full_diagonalization(b0):
    params = SI_BI
    h = build_hamiltonian(params, b0).entries
    levels = ham.labeled_eigensystem(params, b0)
    ref = np.linalg.eigvalsh(h)
    w = np.array([lv.energy for lv in levels])
    assert np.all(np.diff(w) >= 0)
    assert np.allclose(w, ref, rtol=0, atol=1e-9 * np.linalg.norm(h))


@pytest.mark.parametrize("b0", FIELDS_T)
def test_sector_eigenvectors_diagonalize_h_and_fz(b0):
    params = SI_BI
    ops = spin_operators(params)
    h = build_hamiltonian(params, b0).entries
    levels = ham.labeled_eigensystem(params, b0)
    v = sector_eigenvectors(params, b0)
    scale = np.linalg.norm(h)
    assert np.allclose(v.conj().T @ v, np.eye(len(levels)), atol=1e-12)
    hv = v.conj().T @ h @ v
    assert np.allclose(hv - np.diag(np.diag(hv)), 0.0, atol=1e-9 * scale)
    fz = v.conj().T @ ops["fz"] @ v
    assert np.allclose(fz, np.diag([lv.m for lv in levels]), atol=1e-12)


def test_zero_field_labels_agree_with_total_angular_momentum():
    params = SI_BI
    f2 = spin_operators(params)["f2"]
    levels = ham.labeled_eigensystem(params, 0.0)
    v = sector_eigenvectors(params, 0.0)
    for k, lv in enumerate(levels):
        f2_exp = float((v[:, k].conj() @ f2 @ v[:, k]).real)
        assert abs(f2_exp - lv.f * (lv.f + 1)) < 1e-9


@settings(max_examples=60, deadline=None)
@given(
    i=st.sampled_from([0.5, 1.5, 2.5, 3.5, 4.5]),
    gamma_e=st.floats(1e9, 1e11),
    gamma_n=st.floats(-1e8, 1e8),
    a=st.floats(1e7, 1e10),
    b0=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
)
def test_sector_labels_and_energies_for_any_half_odd_nucleus(i, gamma_e, gamma_n, a, b0):
    params = ham.SpinSystemParams(gamma_e=gamma_e, gamma_n=gamma_n, hyperfine_a=a, i=i)
    levels = ham.labeled_eigensystem(params, b0)
    f_lo, f_up = round(i - 0.5), round(i + 0.5)
    expected = {(f_lo, m) for m in range(-f_lo, f_lo + 1)}
    expected |= {(f_up, m) for m in range(-f_up, f_up + 1)}
    labels = [(lv.f, lv.m) for lv in levels]
    assert len(labels) == len(set(labels)) == 2 * round(2 * i + 1)
    assert set(labels) == expected
    h = build_hamiltonian(params, b0).entries
    w = np.array([lv.energy for lv in levels])
    assert np.allclose(w, np.linalg.eigvalsh(h), rtol=0, atol=1e-9 * np.linalg.norm(h))
    # the table from the sectors equals the one read back from the eigenvector matrix
    assert ham.transition_table(params, b0) == reference_transition_table(params, b0)


@pytest.mark.parametrize("b0", [-1e-3, float("nan"), float("inf")])
def test_labeled_eigensystem_rejects_bad_field(b0):
    with pytest.raises(ValueError):
        ham.labeled_eigensystem(SI_BI, b0)


@pytest.mark.parametrize("omega0", [np.nan, np.inf, 0.0])
def test_field_scan_refuses_an_omega0_not_positive_and_finite(omega0):
    # a nan omega0 once gave a scan with no crossings
    with pytest.raises(ValueError, match="^omega0 must be positive and finite"):
        ham.spectrum_vs_field(SI_BI, np.linspace(60e-3, 65e-3, 11), omega0)


@pytest.mark.parametrize("s, i", [(1.5, 4.5), (1.0, 4.5), (0.5, 1.0), (0.5, 0.0)])
def test_labeled_eigensystem_rejects_unsupported_spins(s, i):
    # the electron spin is 1/2 by construction, so only a config can name another
    if s != 0.5:
        with pytest.raises(SchemaError, match=r"spin_system\.s: "):
            parse_config_text(f"{RESONATOR}spin_system: {{s: {s}, i: {i}}}\n")
    else:
        with pytest.raises(ValueError, match="half-odd-integer"):
            ham.SpinSystemParams(28e9, 7e6, 1e9, i)


@pytest.mark.parametrize("kwargs, field", [
    ({"gamma_e": np.inf}, "gamma_e"),
    ({"gamma_e": np.nan}, "gamma_e"),
    ({"gamma_n": np.inf}, "gamma_n"),
    ({"gamma_n": np.nan}, "gamma_n"),
    ({"hyperfine_a": np.inf}, "hyperfine_a"),
    ({"hyperfine_a": np.nan}, "hyperfine_a"),
])
def test_a_non_finite_spin_constant_is_refused_by_its_name(kwargs, field):
    # such constants once reached the first solve, which blamed an overflow
    # of the level energies
    params = {"gamma_e": 28e9, "gamma_n": 7e6, "hyperfine_a": 1e9, **kwargs}
    with pytest.raises(ValueError, match=f"^{field} must be "):
        ham.SpinSystemParams(**params)


def test_closed_form_elements_match_full_operator_products():
    params = SI_BI
    ops = spin_operators(params)
    for b0 in FIELDS_T:
        levels = ham.labeled_eigensystem(params, b0)
        v = sector_eigenvectors(params, b0)
        sx = np.abs(v.T @ ops["sx"] @ v)
        sy = np.abs(v.T @ ops["sy"] @ v)
        index = {(lv.f, lv.m): k for k, lv in enumerate(levels)}
        table = reference_transition_table(params, b0, floor=0.0)  # every link, via _links
        pairs = [(index[t.lower], index[t.upper]) for t in table]
        expected = [(a, b) for a in range(len(levels)) for b in range(a + 1, len(levels))
                    if abs(levels[a].f - levels[b].f) == 1
                    and abs(levels[a].m - levels[b].m) == 1]
        assert pairs == expected  # triu order over the energy-sorted levels
        for t, (a, b) in zip(table, pairs):
            assert abs(t.sx_element - sx[a, b]) < 1e-12
            assert abs(t.sx_element - sy[a, b]) < 1e-12  # |S_y| = |S_x|
            assert t.frequency == levels[b].energy - levels[a].energy


@pytest.mark.parametrize("b0", FIELDS_T + (WEAK_LINK_FIELD_T,))
def test_transition_table_equals_the_eigenvector_matrix_path(b0):
    assert ham.transition_table(SI_BI, b0) == reference_transition_table(SI_BI, b0)


def per_field_rows(params, grid):
    """spectrum_vs_field's rows, built field by field from the one-field slice."""
    rows = []
    for b0 in grid:
        table = ham.transition_table(params, float(b0))
        rows += sorted((float(b0), t.lower, t.upper, t.frequency, t.sx_element)
                       for t in table)
    return rows


def spectrum_rows(spec):
    return list(zip(spec.b0.tolist(), map(tuple, spec.lower.tolist()),
                    map(tuple, spec.upper.tolist()), spec.frequency.tolist(),
                    spec.sx_element.tolist()))


def test_field_scan_columns_equal_the_one_field_slices():
    params = SI_BI
    grid = np.linspace(0.0, 0.07, 36)
    spec = ham.spectrum_vs_field(params, grid, 7.408e9)
    assert spectrum_rows(spec) == per_field_rows(params, grid)


@settings(max_examples=40, deadline=None)
@given(
    i=st.sampled_from([0.5, 1.5, 2.5, 3.5, 4.5]),
    gamma_e=st.floats(1e9, 1e11),
    gamma_n=st.floats(-1e8, 1e8),
    a=st.floats(1e7, 1e10),
    fields=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=12, unique=True),
    from_zero=st.booleans(),
)
def test_field_scan_equals_the_one_field_slices_for_any_nucleus(
        i, gamma_e, gamma_n, a, fields, from_zero):
    params = ham.SpinSystemParams(gamma_e=gamma_e, gamma_n=gamma_n, hyperfine_a=a, i=i)
    grid = np.unique(fields + [0.0] if from_zero else fields)
    spec = ham.spectrum_vs_field(params, grid, 7.408e9)
    assert spectrum_rows(spec) == per_field_rows(params, grid)


@pytest.mark.parametrize("at", [5, -1])
def test_probe_on_a_grid_point_gives_one_crossing_there(at):
    params = SI_BI
    grid = np.linspace(60e-3, 65e-3, 11)
    line = {(t.lower, t.upper): t for t in ham.transition_table(params, float(grid[at]))}
    omega0 = line[((4, 0), (5, -1))].frequency
    spec = ham.spectrum_vs_field(params, grid, omega0)
    hits = [r for r in spec.resonances if (r.lower, r.upper) == ((4, 0), (5, -1))]
    assert [r.b0 for r in hits] == [grid[at]]
