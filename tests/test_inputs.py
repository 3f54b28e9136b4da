"""The input contract: every public precondition raises InputError.

InputError subclasses ValueError, so callers that catch ValueError keep
working; the command line maps it to exit status 2.  Invariants the package
checks on its own results (Factorization's, the scan cross-check, the Sidon
witness) stay plain ValueError or RuntimeError.
"""

import os

import pytest

import tauwindow
from tauwindow import arith, exponents, lcmbound, sidon, spectral, windows
from tauwindow.arith import MAX_VALUE, DivisorRange, Factorization, InputError
from tauwindow.spectral import TrigPolynomial

EMPTY = TrigPolynomial({})
WIDE = TrigPolynomial({0: 1, 1 << 30: 1})

CASES = {
    "range_lo_lt_1": lambda: DivisorRange(0, 4),
    "range_lo_gt_hi": lambda: DivisorRange(5, 4),
    "factorize_0": lambda: arith.factorize(0),
    "factorize_negative": lambda: arith.factorize(-12),
    "factorize_2_96": lambda: arith.factorize(MAX_VALUE),
    "divisors_n_0": lambda: arith.divisors_in_range(0, (1, 2)),
    "divisors_n_2_96": lambda: arith.divisors_in_range(MAX_VALUE, (1, 2)),
    "divisors_empty_range": lambda: arith.divisors_in_range(12, (3, 2)),
    "tau_interval_m_0": lambda: windows.tau_interval(0, (1, 10)),
    "square_scan_k_gt_n": lambda: windows.square_window_scan(5, 6),
    "square_scan_k_0": lambda: windows.square_window_scan(5, 0),
    "square_scan_n_0": lambda: windows.square_window_scan(0, 1),
    "square_scan_workers_0": lambda: windows.square_window_scan(5, 2, workers=0),
    "square_scan_m_limit_ge_2_96": lambda: windows.square_window_scan(10**30, 1),
    "cube_scan_k_gt_n": lambda: windows.cube_window_scan(5, 6),
    "cube_scan_workers_minus1": lambda: windows.cube_window_scan(5, 2, workers=-1),
    "cube_scan_m_limit_ge_2_96": lambda: windows.cube_window_scan(10**15, 1),
    "window_counts_lo_lt_1": lambda: windows.window_multiple_counts((0, 5), 10),
    "ruzsa_from_gt_to": lambda: windows.ruzsa_scan(10, 5, 0.2),
    "ruzsa_from_0": lambda: windows.ruzsa_scan(0, 5, 0.2),
    "ruzsa_eps_ge_half": lambda: windows.ruzsa_scan(1, 10, 0.7),
    "ruzsa_eps_0": lambda: windows.ruzsa_scan(1, 10, 0.0),
    "ruzsa_eps_nan": lambda: windows.ruzsa_scan(1, 10, float("nan")),
    "ruzsa_to_2_96": lambda: windows.ruzsa_scan(MAX_VALUE, MAX_VALUE, 0.25),
    "representations_k_gt_n": lambda: windows.square_representations(5, 5, 6),
    "representations_m_0": lambda: windows.square_representations(0, 5, 3),
    "frequency_set_empty": lambda: spectral.frequency_set([]),
    "frequency_set_duplicate": lambda: spectral.frequency_set([3, 1, 3]),
    "energy_empty": lambda: spectral.additive_energy([]),
    "unit_polynomial_duplicate": lambda: spectral.unit_polynomial([2, 2]),
    "max_representation_empty": lambda: spectral.max_positive_representation([]),
    "autocorrelation_empty": lambda: spectral.autocorrelation(EMPTY),
    "quadrature_empty": lambda: spectral.l4_quadrature_oracle(EMPTY),
    "quadrature_too_wide": lambda: spectral.l4_quadrature_oracle(WIDE),
    "rudin_empty": lambda: spectral.rudin_certificate(EMPTY),
    "is_sidon_empty": lambda: sidon.is_sidon([]),
    "squares_window_n_0": lambda: sidon.squares_window(0),
    "cubes_window_n_0": lambda: sidon.cubes_window(0),
    "sidon_kind": lambda: sidon.verify_window_range("fifth", 1, 10),
    "sidon_from_gt_to": lambda: sidon.verify_window_range("cube", 5, 4),
    "sidon_from_0": lambda: sidon.verify_window_range("square", 0, 4),
    "sidon_workers_0": lambda: sidon.verify_window_range("square", 1, 10, workers=0),
    "lcm_one_value": lambda: lcmbound.verify_lcm_bound([4], 2),
    "lcm_value_0": lambda: lcmbound.verify_lcm_bound([4, 0], 2),
    "lcm_value_2_96": lambda: lcmbound.verify_lcm_bound([4, 6, MAX_VALUE], 2),
    "lcm_s_1": lambda: lcmbound.verify_lcm_bound([4, 6], 1),
    "lcm_s_gt_r": lambda: lcmbound.verify_lcm_bound([4, 6], 3),
    "counterexample_r_1": lambda: lcmbound.counterexample_s1(1, 4),
    "counterexample_d_0": lambda: lcmbound.counterexample_s1(3, 0),
    "counterexample_d_2_96": lambda: lcmbound.counterexample_s1(3, MAX_VALUE),
    "square_exponent_r_2": lambda: exponents.square_exponent(2),
    "cube_exponent_r_2": lambda: exponents.cube_exponent(2),
    "objective_power": lambda: exponents.continuous_objective("quartic", 0.5),
    "objective_alpha_1": lambda: exponents.continuous_objective("square", 1.0),
    "k_threshold_n_0": lambda: exponents.k_threshold_report(0, 5, "square"),
    "k_threshold_power": lambda: exponents.k_threshold_report(10, 5, "quartic"),
    "k_threshold_r_2": lambda: exponents.k_threshold_report(10, 2, "cube"),
}


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_precondition_raises_input_error(call):
    with pytest.raises(InputError):
        call()


def test_input_error_is_exported_value_error():
    assert tauwindow.InputError is InputError
    assert issubclass(InputError, ValueError)


def test_factorization_invariant_is_not_input_error():
    # the package builds Factorization only from factorize's own output, so a
    # broken invariant there is a bug, not a bad argument
    with pytest.raises(ValueError) as exc:
        Factorization(12, ((3, 1), (2, 2)))
    assert not isinstance(exc.value, InputError)


class _InlinePool:
    """Stands in for ProcessPoolExecutor: runs in process and records
    (max_workers, parts mapped) for each map call."""

    calls: list[tuple[int, int]] = []

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        items = list(items)
        self.calls.append((self.max_workers, len(items)))
        return map(fn, items)


POOLED = {
    "square_scan": (windows, lambda w: windows.square_window_scan(50, 7, workers=w)),
    "cube_scan": (windows, lambda w: windows.cube_window_scan(6, 2, workers=w)),
    "sidon_range": (sidon, lambda w: sidon.verify_window_range("cube", 1, 200, workers=w)),
}


@pytest.mark.parametrize("module, call", POOLED.values(), ids=POOLED.keys())
def test_pool_size_capped_at_cpu_count(monkeypatch, module, call):
    # 64 workers still split the work 64 ways, but the pool forks no more
    # processes than there are CPUs; the fake pool starts none
    monkeypatch.setattr(module, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "calls", [])
    assert call(64) == call(1)
    assert _InlinePool.calls == [(min(64, os.cpu_count() or 1), 64)]
