import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import curve_fit

from _frozen import FROZEN
from purcell_cool import estimators as est
from purcell_cool.errors import NoConvergence
from purcell_cool.thermal import ResonatorParams, bose_occupation

OMEGA0 = 7.408e9
RES = ResonatorParams(omega0=OMEGA0, kappa_int=2 * math.pi * 0.4e6,
                      kappa_ext=2 * math.pi * 0.6e6)


class TestExponentialRecovery:
    def model(self, dt, a, g, c):
        return a * (1 - 2 * np.exp(-g * dt)) + c

    def test_noiseless_round_trip(self):
        dt = np.array([0.0, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 12.0])
        y = self.model(dt, 0.021, 5.5, 0.001)
        fit = est.fit_exponential_recovery(zip(dt, y))
        assert fit.converged
        assert abs(fit.parameters["gamma1"] - 5.5) < 1e-7
        assert abs(fit.parameters["amplitude"] - 0.021) < 1e-9
        assert abs(fit.parameters["offset"] - 0.001) < 1e-9
        assert set(fit.std_errors) == {"amplitude", "gamma1", "offset"}

    def test_inverted_recovery_keeps_the_amplitude_positive(self):
        dt = np.geomspace(0.05, 8.0, 12)
        fit = est.fit_exponential_recovery(zip(dt, self.model(dt, -0.3, 1.3, 0.05)))
        assert fit.converged
        assert list(fit.parameters) == ["amplitude", "gamma1", "offset"]
        assert abs(fit.parameters["amplitude"] - 0.3) < 1e-9
        assert abs(fit.parameters["gamma1"] - 1.3) < 1e-7

    def test_inverted_recovery_flips_the_offset_with_the_amplitude(self):
        # the gauge negates the data: (A, gamma1, c) -> (-A, gamma1, -c)
        dt = np.geomspace(0.05, 8.0, 12)
        y = self.model(dt, -0.3, 1.3, 0.05)
        fit = est.fit_exponential_recovery(zip(dt, y))
        assert abs(fit.parameters["offset"] + 0.05) < 1e-9
        assert np.allclose(self.model(dt, *fit.parameters.values()), -y, atol=1e-9)

    def test_noisy_matches_library_fit(self):
        rng = np.random.default_rng(11)
        for dt, truth, noise in [
            (np.geomspace(0.01, 20.0, 25), (1.0, 0.8, 0.0), 0.01),
            # demo scale: areas about 4e-9, which an unscaled J^T J loses
            (3.77 * 2.0 ** np.arange(5), (3.7e-9, 0.05, 4e-10), 5e-11),
        ]:
            y = self.model(dt, *truth) + rng.normal(scale=noise, size=dt.size)
            fit = est.fit_exponential_recovery(zip(dt, y))
            ref, cov = curve_fit(self.model, dt, y, p0=truth, xtol=1e-14, ftol=1e-14)
            assert abs(fit.parameters["gamma1"] - ref[1]) < 1e-6 * abs(ref[1])
            assert abs(fit.parameters["gamma1"] - truth[1]) < 0.05 * truth[1]
            assert np.allclose(list(fit.std_errors.values()), np.sqrt(np.diag(cov)),
                               rtol=1e-4, atol=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            est.fit_exponential_recovery([(0.1, 1.0), (0.2, 1.1), (0.3, 1.2)])
        with pytest.raises(ValueError):
            est.fit_exponential_recovery([(-0.1, 1.0), (0.2, 1.1), (0.3, 1.2), (0.4, 1.3)])


class TestGaussianDecay:
    def test_noiseless_round_trip(self):
        x = np.linspace(20e-6, 2.0e-3, 24)  # total evolution time 2 tau
        y = 0.02 * np.exp(-((x / 6.0e-4) ** 2))
        fit = est.fit_gaussian_decay(zip(x, y))
        assert fit.converged
        assert abs(fit.parameters["t2"] - 6.0e-4) < 1e-10
        assert abs(fit.parameters["amplitude"] - 0.02) < 1e-12

    def test_noisy_recovery(self):
        rng = np.random.default_rng(3)
        for t2 in (6.0e-4, 1.0e-4):
            x = np.linspace(t2 / 30, 10 * t2 / 3, 40)
            y = np.exp(-((x / t2) ** 2)) * (1 + rng.normal(scale=0.01, size=x.size))
            fit = est.fit_gaussian_decay(zip(x, y))
            ref, cov = curve_fit(lambda x, a, t: a * np.exp(-((x / t) ** 2)), x, y,
                                 p0=[1.0, t2], xtol=1e-14, ftol=1e-14)
            assert abs(fit.parameters["t2"] - t2) < 0.03 * t2
            assert np.allclose(list(fit.parameters.values()), ref, rtol=1e-9, atol=0)
            assert np.allclose(list(fit.std_errors.values()), np.sqrt(np.diag(cov)),
                               rtol=1e-4, atol=0)

    def test_needs_four_points(self):
        with pytest.raises(ValueError):
            est.fit_gaussian_decay([(1e-4, 1.0), (2e-4, 0.9), (3e-4, 0.7)])


def test_fits_are_unit_equivariant():
    # data in other units, x times 2^k and y times 2^m, give the same fit in
    # those units: each parameter's scale comes from its Jacobian column and
    # the seeds work in units of the data, so nothing but rounding differs
    rng = np.random.default_rng(23)
    dt = np.geomspace(0.05, 40.0, 9)
    y_rec = 1 - 2 * np.exp(-0.3 * dt) + 0.01 * rng.normal(size=dt.size)
    x = np.linspace(0.1, 2.5, 12)
    y_dec = np.exp(-(x ** 2)) + 0.01 * rng.normal(size=x.size)
    cases = [(est.fit_exponential_recovery, dt, y_rec, [(0, 1), (-1, 0), (0, 1)]),
             (est.fit_gaussian_decay, x, y_dec, [(0, 1), (1, 0)])]
    for fit, xs, ys, powers in cases:  # (x, y) power of each parameter's unit
        ref = fit(zip(xs, ys))
        for k in range(-60, 61, 20):
            for m in range(-60, 61, 20):
                got = fit(zip(xs * 2.0 ** k, ys * 2.0 ** m))
                unit = np.array([2.0 ** (k * a + m * b) for a, b in powers])
                for name in ("parameters", "std_errors"):
                    want = np.array(list(getattr(ref, name).values())) * unit
                    assert np.allclose(list(getattr(got, name).values()), want,
                                       rtol=1e-8, atol=0), (fit.__name__, k, m, name)


@pytest.mark.parametrize("fit, undetermined", [
    (est.fit_exponential_recovery, "gamma1"),  # no amplitude, so no rate
    (est.fit_gaussian_decay, "t2"),
])
def test_an_undetermined_parameter_has_no_standard_error(fit, undetermined):
    # all-zero areas fit exactly with a zero amplitude, at any rate or T2:
    # that parameter's Jacobian column is 0, and its singular value is dropped
    result = fit([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)])
    assert result.std_errors[undetermined] is None
    assert all(e == 0.0 for name, e in result.std_errors.items() if name != undetermined)


# a resonator at 1 Hz, so that the fuzz's rows can bracket it
PSD_FIXED = {"resonator": ResonatorParams(omega0=1.0, kappa_int=0.5, kappa_ext=0.5),
             "t_phon": 0.1}


@st.composite
def _fit_rows(draw):
    """4 to 12 rows of finite, zero, subnormal and 1e308-sized numbers: the
    abscissae nonnegative, some of them repeated, and the values of either
    sign, many of them repeats of a few."""
    size = st.one_of(st.floats(0.0, 1e3), st.sampled_from([0.0, 5e-324, 1e-310, 1e308]))
    signed = st.builds(lambda v, sign: sign * v, size, st.sampled_from([1.0, -1.0]))
    n = draw(st.integers(4, 12))
    xs = draw(st.lists(size, min_size=n, max_size=n))
    xs[draw(st.integers(0, n - 1))] = draw(st.sampled_from(xs))  # one repeat, or none
    pool = draw(st.lists(signed, min_size=1, max_size=4))
    ys = draw(st.lists(st.one_of(signed, st.sampled_from(pool)), min_size=n, max_size=n))
    return list(zip(xs, ys))


@settings(max_examples=60, deadline=None)
@given(rows=_fit_rows())
@example(rows=list(zip(range(4), [1.0, 1e308, 0.1, 0.01])))  # overflowed in LM's matmul
@example(rows=list(zip(range(4), [1.0, math.inf, 0.1, 0.01])))  # nan in the residual
@example(rows=list(zip(range(4), [1.0] * 4)))  # all-equal areas: no recovery rate
@example(rows=[(10**400, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0)])  # past float range
def test_fitters_return_finite_results_or_refuse_with_their_own_error(rows):
    fits = [est.fit_exponential_recovery, est.fit_gaussian_decay,
            lambda data: est.fit_psd(data, PSD_FIXED, "hot")]
    for fit in fits:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                result = fit(rows)
            except (ValueError, NoConvergence):
                continue
        numbers = [*result.parameters.values(), result.residual_norm,
                   *(e for e in result.std_errors.values() if e is not None)]
        assert all(map(math.isfinite, numbers)), result


def psd_points(config, n_twpa, t_int, alpha, span=3e6, n=41):
    omega = OMEGA0 + np.linspace(-span, span, n)
    return omega, est.psd_model(omega, config, resonator=RES, t_phon=0.85,
                                n_twpa=n_twpa, t_int=t_int, alpha=alpha)


class TestPsd:
    def test_model_on_resonance_hand_formula(self):
        omega, s = psd_points("hot", 0.6, 0.95, 1.0, n=41)
        beta0 = 4 * RES.kappa_int * RES.kappa_ext / RES.kappa**2
        want = est.PLANCK * OMEGA0 * (
            (1 - beta0) * bose_occupation(0.85, OMEGA0)
            + beta0 * bose_occupation(0.95, OMEGA0) + 0.5 + 0.6)
        assert abs(s[20] - want) < 1e-12 * want

    @pytest.mark.parametrize("t_phon", [0.0, 0.02, 0.85])
    @pytest.mark.parametrize("config", ["hot", "cold"])
    def test_array_occupations_match_scalar(self, t_phon, config):
        omega = OMEGA0 + np.linspace(-3e6, 3e6, 41)
        p = dict(resonator=RES, t_phon=t_phon, n_twpa=0.6, t_int=0.95, alpha=0.47)
        n_phon = np.array([bose_occupation(t_phon, f) for f in omega])
        n_int = np.array([bose_occupation(0.95, f) for f in omega])
        beta = 4 * RES.kappa_int * RES.kappa_ext / (
            RES.kappa**2 + 4 * (2 * math.pi * (omega - OMEGA0)) ** 2)
        off = n_phon if config == "hot" else 0.47 * n_phon
        want = est.PLANCK * omega * ((1 - beta) * off + beta * n_int + 0.5 + 0.6)
        assert np.allclose(est.psd_model(omega, config, **p), want, rtol=1e-12, atol=0)

    def test_occupation_inputs_validated(self):
        p = dict(resonator=RES, t_phon=0.85, n_twpa=0.6, alpha=1.0)
        with pytest.raises(ValueError):
            est.psd_model(OMEGA0, "hot", t_int=-0.1, **p)
        with pytest.raises(ValueError):
            est.psd_model(np.array([OMEGA0, 0.0]), "hot", t_int=0.95, **p)

    def test_hot_joint_round_trip(self):
        omega, s = psd_points("hot", 1.1, 1.3, 1.0)
        fit = est.fit_psd(zip(omega, s), {"resonator": RES, "t_phon": 0.85}, "hot")
        assert abs(fit.parameters["n_twpa"] - 1.1) < 1e-6
        assert abs(fit.parameters["t_int"] - 1.3) < 1e-6

    def test_hot_fixed_twpa(self):
        omega, s = psd_points("hot", 0.75, 0.95, 1.0)
        fit = est.fit_psd(zip(omega, s),
                          {"resonator": RES, "t_phon": 0.85, "n_twpa": 0.75}, "hot")
        assert set(fit.parameters) == {"t_int"}
        assert abs(fit.parameters["t_int"] - 0.95) < 1e-8

    def test_cold_round_trip_and_noise(self):
        omega, s = psd_points("cold", 0.75, 0.76, 0.47)
        fixed = {"resonator": RES, "t_phon": 0.85, "n_twpa": 0.75}
        fit = est.fit_psd(zip(omega, s), fixed, "cold")
        assert abs(fit.parameters["alpha"] - 0.47) < 1e-7
        assert abs(fit.parameters["t_int"] - 0.76) < 1e-7

        rng = np.random.default_rng(19)
        noisy = s * (1 + rng.normal(scale=0.01, size=s.size))
        fit = est.fit_psd(zip(omega, noisy), fixed, "cold")
        assert abs(fit.parameters["alpha"] - 0.47) < 0.04

    def test_cold_needs_n_twpa(self):
        omega, s = psd_points("cold", 0.75, 0.76, 0.47)
        with pytest.raises(ValueError, match="n_twpa"):
            est.fit_psd(zip(omega, s), {"resonator": RES, "t_phon": 0.85}, "cold")

    def test_requires_bracketing_data(self):
        omega, s = psd_points("hot", 0.75, 0.95, 1.0)
        low = omega < OMEGA0
        with pytest.raises(ValueError, match="do not bracket"):
            est.fit_psd(zip(omega[low], s[low]),
                        {"resonator": RES, "t_phon": 0.85}, "hot")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            est.psd_model(OMEGA0, "warm", resonator=RES, t_phon=0.85, n_twpa=0.5,
                          t_int=0.9, alpha=1.0)


class TestSnr:
    def test_argmax_root(self):
        x = est.snr_argmax_x()
        assert abs(x - FROZEN["snr_xstar"]) < 1e-11
        assert abs(math.exp(x) - 1 - 2 * x) < 1e-10

    def test_optimal_trep_is_grid_argmax(self):
        gamma1 = 3.7
        t_opt = est.optimal_trep(gamma1)
        grid = np.linspace(0.01, 5.0, 200001) / gamma1
        vals = est.snr_model(grid, gamma1, 0.1, 2.0)
        assert abs(grid[np.argmax(vals)] - t_opt) < grid[1] - grid[0]

    def test_peak_scales_as_sqrt_eta(self):
        gamma1, p, sigma, eta = 0.21, 0.083, 1.7, 1.3181923
        peak_hot = est.snr_model(est.optimal_trep(gamma1), gamma1, p, sigma)
        peak_cold = est.snr_model(est.optimal_trep(gamma1 / eta),
                                  gamma1 / eta, eta * p, sigma)
        assert abs(peak_cold / peak_hot - math.sqrt(eta)) < 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            est.snr_model(0.0, 1.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            est.optimal_trep(0.0)

    @pytest.mark.parametrize("call, args, name", [
        (est.optimal_trep, (math.nan,), "gamma1"),
        (est.optimal_trep, (math.inf,), "gamma1"),  # once 0.0
        (est.snr_model, (1.0, math.nan, 0.1, 1.0), "gamma1"),
        (est.snr_model, (math.nan, 1.0, 0.1, 1.0), "t_rep"),
        (est.snr_model, (np.array([1.0, math.nan]), 1.0, 0.1, 1.0), "t_rep"),
    ], ids=["trep-nan", "trep-inf", "snr-gamma1-nan", "snr-nan", "snr-array-nan"])
    def test_a_non_finite_argument_is_refused_by_its_name(self, call, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            call(*args)
