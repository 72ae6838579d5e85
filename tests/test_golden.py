"""Golden values of the bundled scenarios, pinned to 1e-12, and the
compare-dirac ones to tolerances measured per column (DIRAC_REL).

Each bundled scenario is run the way `mpsolve run` runs it, and the two
comparator scenarios the way `mpsolve compare-dirac` compares them.  These
values guard refactors of the engine: a change that keeps the numerics must
reproduce them.  smooth_ramp is pinned at the exact slice average of its
piecewise-linear ramp; the 16-point Gauss-Legendre average it replaced gave
values up to 9.9e-7 away.  `converge smooth_ramp` is pinned looser, see
GOLDEN_CONVERGE.
"""

import csv
import json

import pytest

from mpsolve.scenario import (
    bundled_scenario_path,
    compare_dirac_scenario,
    converge_scenario,
    parse_scenario,
    run_scenario,
)

TOL = dict(rel=1e-12, abs=1e-12)

# name: (final_energy_ratio, final_norm, phase_vs_reference,
#        [(re, im) of final coefficients 0-3])
GOLDEN_RUN = {
    "quench_eta025": (
        0.6249914002907645, 0.9999999999999998, None,
        [(0.8521203966789827, -0.4655059790701435),
         (-6.852659502999087e-16, 9.244401225036181e-15),
         (0.1833443195999692, 0.13699423501747598),
         (1.6392703655083496e-14, -6.127419611902337e-15)]),
    "quench_eta081": (
        0.9049721356163637, 1.0000000000000004, None,
        [(0.621200811934999, -0.7827665128084882),
         (-3.180497125510107e-14, -1.501181743653075e-14),
         (0.007853140626773614, -0.03635370523566301),
         (-9.478061091287878e-15, 8.165507629963008e-17)]),
    "quench_eta121": (
        1.1049583751347154, 0.9999999999999987, None,
        [(0.4533758089278512, -0.8906827846227308),
         (-1.9220823875801464e-14, 3.2221638104047464e-15),
         (0.023836984079012753, 0.023757420531044224),
         (-6.26103641260504e-16, 3.6336544310892396e-15)]),
    "pulse_eta4": (
        2.4998623957750365, 1.0000000000000013, -3.1409034798980464,
        [(0.9709792763101505, 0.00041975992096737253),
         (2.5823614433696913e-14, 1.2710544698789427e-16),
         (0.2288662859640069, 0.0012863860456158816),
         (2.5066268174283995e-15, 7.216855337547691e-17)]),
    "pulse_eta081": (
        0.9049721356163795, 1.0000000000000036, 0.6980893210695267,
        [(0.999306671914843, 0.0001943953402299537),
         (1.7752506809749248e-14, 9.457864718610896e-17),
         (-0.03719213431322155, -9.406004808696833e-05),
         (-3.5793725650321926e-15, -5.870722880206888e-17)]),
    "stationary": (
        0.9999655993875392, 0.999999999999877, None,
        [(0.28349724335701953, 0.9589730512422379),
         (-5.195899685771277e-16, -1.3470223240588074e-15),
         (1.0715614061360395e-15, 5.653287174880665e-17),
         (-3.024556275389059e-16, 6.873756035658139e-18)]),
    "smooth_ramp": (
        1.0649869235498375, 1.0000000000000018, None,
        [(0.4369798108993881, -0.8923395347082731),
         (-2.0681684849373942e-14, -2.194160693315688e-14),
         (0.025272074964218436, 0.1090695425107009),
         (2.2012466588625535e-15, 2.893038678346637e-15)]),
    "dirac_weak": (
        1.0003427840679366, 1.0000000000000009, None,
        [(0.8775003955378299, -0.4795758799162553),
         (-3.8229434652118865e-14, 7.802252719584972e-14),
         (-0.00014161017520704128, -0.00010573576988872241),
         (-1.4593064598426762e-15, -1.4265276190447764e-15)]),
}

# name: dirac_compare.csv rows (m, abs_c_multiproj, abs_c_rk4,
#       abs_b_first_order, diff_mp_rk4, diff_mp_fo, diff_rk4_fo).  RK4 never
# takes V at a pulse edge, so on dirac_weak it meets multi-projection to
# rounding: its diff_mp_rk4 is None here and held below DIRAC_AGREEMENT.
GOLDEN_DIRAC = {
    "quench_eta025": [
        (2, 0.2940083782571283, 7.553489041323007e+42, 0.26213036203192525,
         7.553489041323007e+42, 0.03187801622520303, 7.553489041323007e+42),
        (4, 0.11179286073638289, 4.535151286463181e+43, 4.661727824183915e-06,
         4.535151286463181e+43, 0.11178819900855871, 4.535151286463181e+43),
        (6, 0.04485260734780974, 1.6349137623281205e+44, 1.345871653743451e-09,
         1.6349137623281205e+44, 0.044852606001938085, 1.6349137623281205e+44),
    ],
    "dirac_weak": [
        (2, 0.0002974317120170673, 0.00029743171202221703, 0.0002974849553342656,
         None, 5.32433171983337e-08, 5.324331204859022e-08),
    ],
}

# Relative tolerance per column of GOLDEN_DIRAC: ten times the largest
# relative change of the column between OpenBLAS at 1 thread and at its
# default thread count (2 on 2 cores), rounded up to two digits.  Measured
# changes: 3.71e-13, 1.09e-15, 5.47e-16, none, 2.07e-9 and 3.05e-12 (all on
# dirac_weak; quench_eta025 gave the same bits at both thread counts).
# quench_eta025's diff_mp_rk4 equals its abs_c_rk4 to the bit, so it takes
# that column's tolerance.  No value is held looser than the rel 1e-12 and
# abs 1e-12 of TOL.
DIRAC_REL = (3.8e-12, 1.1e-14, 5.5e-15, 1.1e-14, 2.1e-8, 3.1e-11)
# dirac_weak's diff_mp_rk4 is rounding (5.15e-15 at 1 thread, 5.26e-15 at
# the default), so it is a bound, not a value
DIRAC_AGREEMENT = 1e-13


def dirac_pin(value, rel):
    return pytest.approx(value, rel=min(rel, max(TOL["rel"], TOL["abs"] / abs(value))),
                         abs=0.0)


# `converge smooth_ramp --doublings 3`: convergence.csv rows (slices,
# l2_error, observed_order) and the reference's error estimate.  Each is the
# distance between two runs, so rounding in either moves it further than it
# moves a run's own values: the rows are pinned at rel 1e-8 and the estimate,
# the distance between two close cfm4 runs, at rel 1e-6.
GOLDEN_CONVERGE = (
    [(8, 0.0029911854331129018, None),
     (16, 0.00075058824296746088, 1.9946237530020401),
     (32, 0.00018731250995523722, 2.0025744369611544),
     (64, 4.6285977139671045e-05, 2.0168001714021657)],
    1.089863477518063e-05,
)


@pytest.mark.parametrize("name", sorted(GOLDEN_RUN))
def test_run_golden(name, tmp_path):
    ratio, norm, phase, coeffs = GOLDEN_RUN[name]
    summary = run_scenario(parse_scenario(bundled_scenario_path(name)), str(tmp_path))
    assert summary.final_energy_ratio == pytest.approx(ratio, **TOL)
    assert summary.final_norm == pytest.approx(norm, **TOL)
    if phase is None:
        assert summary.phase_vs_reference is None
    else:
        assert summary.phase_vs_reference == pytest.approx(phase, **TOL)
    got = [(c.real, c.imag) for c in summary.final_coefficients[:4]]
    assert got == [pytest.approx(c, **TOL) for c in coeffs]


@pytest.mark.parametrize("name", sorted(GOLDEN_DIRAC))
def test_compare_dirac_golden(name, tmp_path):
    compare_dirac_scenario(parse_scenario(bundled_scenario_path(name)), str(tmp_path))
    with open(tmp_path / "dirac_compare.csv", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    got = [(int(r[0]),) + tuple(float(v) for v in r[1:]) for r in rows]
    assert [r[0] for r in got] == [r[0] for r in GOLDEN_DIRAC[name]]
    for row, pinned in zip(got, GOLDEN_DIRAC[name]):
        for value, pin, rel in zip(row[1:], pinned[1:], DIRAC_REL):
            if pin is None:
                assert value <= DIRAC_AGREEMENT
            else:
                assert value == dirac_pin(pin, rel)


def test_converge_golden(tmp_path):
    rows, estimate = GOLDEN_CONVERGE
    converge_scenario(parse_scenario(bundled_scenario_path("smooth_ramp")), 3,
                      str(tmp_path))
    with open(tmp_path / "convergence.csv", encoding="utf-8") as fh:
        got = list(csv.reader(fh))[1:]
    assert [int(r[0]) for r in got] == [r[0] for r in rows]
    assert [(float(r[1]), float(r[2]) if r[2] else None) for r in got] == [
        (pytest.approx(err, rel=1e-8), None if order is None
         else pytest.approx(order, rel=1e-8)) for _, err, order in rows]
    doc = json.loads((tmp_path / "convergence.json").read_text())
    assert doc == {"reference_scheme": "cfm4", "reference_slices": 16,
                   "reference_error_estimate": pytest.approx(estimate, rel=1e-6),
                   "eigensolves": [
                       {"scheme": scheme, "slices": slices,
                        "counts": {"reused": 0, "refined": refined, "lapack": lapack,
                                   "fallbacks": fallbacks}}
                       for scheme, slices, refined, lapack, fallbacks in [
                           ("cfm4", 16, 31, 1, 0), ("cfm4", 8, 15, 1, 0),
                           ("average", 8, 5, 3, 2), ("average", 16, 15, 1, 0),
                           ("average", 32, 31, 1, 0), ("average", 64, 63, 1, 0)]]}
