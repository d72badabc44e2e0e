import cmath
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biflab import io as bio
from biflab import misiurewicz
from biflab.errors import CriticalOnOrbit, NoConvergence, NonRepellingTarget
from biflab.families import MapFamily
from biflab.misiurewicz import (
    ActivitySpec,
    MisiurewiczCertificate,
    Preperiodic,
    activity_chi,
    certificate_from_json,
    certificate_to_json,
    solve_misiurewicz,
    transversality,
    verify_certificate,
)

QUAD = MapFamily("unicritical", 2)
CUBIC = MapFamily("branner_hubbard", 3)

# at c = -2 the critical orbit is 0 -> -2 -> 2 -> 2: the critical value
# lands on the beta fixed point after two steps
CHEB_SPEC = ActivitySpec((0,), 2, (Preperiodic(1, 1),))
# at c = i the orbit is 0 -> i -> -1+i -> -i -> -1+i: period 2 after two steps
I_SPEC = ActivitySpec((0,), 2, (Preperiodic(2, 2),))


class TestActivity:
    def test_zero_at_chebyshev(self):
        assert activity_chi(QUAD, [-2.0 + 0j], CHEB_SPEC)[0] == 0

    def test_zero_at_i(self):
        assert abs(activity_chi(QUAD, [1j], I_SPEC)[0]) < 1e-15

    def test_linear_response_near_chebyshev(self):
        # chi(c) = (c^2+c)^2 - c^2 has derivative -8 at c = -2
        h = 1e-4
        chi = activity_chi(QUAD, [-2.0 + h], CHEB_SPEC)[0]
        assert abs(chi - (-8 * h)) < 5e-7

    def test_matches_closed_form(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            c = complex(*rng.standard_normal(2)) * 0.8
            chi = activity_chi(QUAD, [c], CHEB_SPEC)[0]
            assert abs(chi - ((c * c + c) ** 2 - c * c)) < 1e-12

    def test_motion_form_proportional_to_algebraic(self):
        # why one pattern kind is enough: near a zero with landing
        # multiplier m the motion form chi_mot = f^2(0) - beta(c), with
        # beta(c) = (1 + sqrt(1 - 4c)) / 2 the continued fixed point, gives
        # chi_alg = (m - 1) chi_mot + O(chi^2); here m = 4
        c = -2.0 + 1e-7 * (0.6 + 0.8j)
        ca = activity_chi(QUAD, [c], CHEB_SPEC)[0]
        cm = (c * c + c) - (1 + cmath.sqrt(1 - 4 * c)) / 2
        assert abs(ca - 3 * cm) <= 1e-6 * abs(ca)

    def test_negative_critical_index_rejected(self):
        # the cubic family marks c_0 and c_1; a negative index names none
        spec = ActivitySpec((0, -1), 2, (Preperiodic(1, 1), Preperiodic(1, 1)))
        with pytest.raises(ValueError, match="critical index -1 out of range"):
            activity_chi(CUBIC, [0.4 + 0j, 1.0 + 0j], spec)


class TestTransversality:
    def test_chebyshev_derivative_modulus(self):
        assert abs(transversality(QUAD, [-2.0 + 0j], CHEB_SPEC) - 8.0) < 1e-4

    def test_finite_difference_matches_analytic(self):
        h = 1e-7
        d = (activity_chi(QUAD, [-2.0 + h], CHEB_SPEC)[0]
             - activity_chi(QUAD, [-2.0 - h], CHEB_SPEC)[0]) / (2 * h)
        assert abs(d - (-8.0)) < 1e-4 * 8.0

    def test_degenerate_stratum_is_flagged_small(self):
        # with both cubic critical points nearly merged the two chi rows
        # coincide and the smallest singular value collapses
        spec = ActivitySpec((0, 1), 1, (Preperiodic(1, 1), Preperiodic(1, 1)))
        near = transversality(CUBIC, [1e-8 + 0j, 0.8 + 0j], spec)
        generic = transversality(CUBIC, [1.1 + 0.3j, 0.8 + 0j], spec)
        assert near < 1e-3 * generic


class TestSolver:
    def test_finds_chebyshev(self):
        cert = solve_misiurewicz(QUAD, [-1.9 + 0j], CHEB_SPEC)
        assert abs(cert.lam[0] - (-2.0)) < 1e-10
        assert cert.residual <= 1e-10
        assert abs(cert.sigma_min - 8.0) < 1e-3
        assert abs(cert.multipliers[0][0] - math.log(4)) < 1e-10

    def test_finds_i(self):
        cert = solve_misiurewicz(QUAD, [0.1 + 1.05j], I_SPEC)
        assert abs(cert.lam[0] - 1j) < 1e-10

    def test_basin_of_attraction(self):
        for k in range(8):
            seed = -2.0 + 0.05 * np.exp(2j * np.pi * k / 8)
            cert = solve_misiurewicz(QUAD, [seed], CHEB_SPEC)
            assert abs(cert.lam[0] - (-2.0)) < 1e-10

    def test_attracting_target_refused(self):
        # chi for this pattern also vanishes at c = 0, where the landing
        # fixed point is superattracting
        with pytest.raises(NonRepellingTarget):
            solve_misiurewicz(QUAD, [0.05 + 0j], CHEB_SPEC)

    @pytest.mark.parametrize("seed, stage", [
        # orbits overflow in a damping trial: the inf residual is rejected
        ([1.0 + 0j, 100.0 + 0j], "stalled"),
        # an orbit overflows inside the finite-difference Jacobian
        ([1.0 + 0j, 1e4 + 0j], "Newton: activity Jacobian is not finite"),
    ])
    def test_diverging_seed_fails_quietly(self, seed, stage):
        spec = ActivitySpec((0, 1), 2, (Preperiodic(1, 1), Preperiodic(2, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoConvergence, match=stage):
                solve_misiurewicz(CUBIC, seed, spec)

    def test_m_plus_profile_chebyshev(self):
        cert = solve_misiurewicz(QUAD, [-1.9 + 0j], CHEB_SPEC)
        n = np.arange(1, len(cert.m_plus) + 1, dtype=float)
        assert np.allclose(cert.m_plus, n * math.log(4), rtol=1e-10)


class TestCallCount:
    """How many activity evaluations a solve makes, independent of timing.

    Seeds from the c12 hunt grid (tests/test_acceptance.py): one that
    certifies, one whose Newton run converges to a superattracting
    target after many damping halvings.  The start and each damping
    trial are one ``activity_chi`` call on the (2m+1, m) stack of the
    point and its 2m difference points, so a solve makes 1 + trials
    calls and one ``np.linalg.solve`` per Newton step.  An accepted trial
    brings the Jacobian of the next step, and a certified parameter's
    transversality is read off the Jacobian held at the end, so nothing
    is evaluated after the accepted trial.
    """

    SPEC = ActivitySpec((0, 1), 2, (Preperiodic(1, 1), Preperiodic(2, 2)))

    @pytest.mark.parametrize("grid, certified, steps, trials", [
        ((-0.375 + 0.8j, 5, 1), True, 14, 14),
        ((0.4j, 3, 0), False, 28, 31),
    ], ids=["certified", "superattracting"])
    def test_one_stacked_call_per_trial(self, monkeypatch, grid, certified, steps, trials):
        c1, j, k = grid
        seed = [c1, complex(np.linspace(0.3, 1.3, 6)[j], (0.1, 0.5)[k])]
        log = []
        chi, solve = misiurewicz.activity_chi, np.linalg.solve

        def counted_chi(family, lam, spec, **kw):
            log.append(np.array(lam))
            return chi(family, lam, spec, **kw)

        def counted_solve(*args):
            log.append("newton step")
            return solve(*args)

        monkeypatch.setattr(misiurewicz, "activity_chi", counted_chi)
        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        if certified:
            cert = solve_misiurewicz(CUBIC, seed, self.SPEC)
        else:
            with pytest.raises(NonRepellingTarget):
                solve_misiurewicz(CUBIC, seed, self.SPEC)
        calls = [entry for entry in log if not isinstance(entry, str)]
        assert all(stack.shape == (5, 2) for stack in calls)
        assert len(calls) == 1 + trials
        assert len(log) - len(calls) == steps
        if certified:
            # the last entry is the accepted trial, at the certified lambda
            assert not isinstance(log[-1], str) and np.array_equal(log[-1][0], cert.lam)


class TestVerification:
    def test_certificate_passes(self):
        cert = solve_misiurewicz(QUAD, [-1.9 + 0j], CHEB_SPEC)
        report = verify_certificate(cert, QUAD)
        assert report["passed"]
        assert all(report["checks"].values())

    def test_perturbed_parameter_fails_closure(self):
        cert = solve_misiurewicz(QUAD, [-1.9 + 0j], CHEB_SPEC)
        bad = MisiurewiczCertificate(
            lam=cert.lam + 1e-4, residual=cert.residual,
            multipliers=cert.multipliers, sigma_min=cert.sigma_min,
            m_plus=cert.m_plus, spec=cert.spec)
        report = verify_certificate(bad, QUAD)
        assert not report["passed"]
        assert not report["checks"]["orbit_closure"]

    def test_escaping_orbit_fails_in_the_report(self):
        # at c = 5 the critical orbit 0, 5, 30, ... is past the escape
        # radius when the walk from f^2(0) starts: its gap is infinite and
        # there is no m_n^+ fold to compare; this used to raise
        cert = solve_misiurewicz(QUAD, [-1.95 + 0j], CHEB_SPEC)
        cert.lam = np.array([5.0 + 0j])
        report = verify_certificate(cert, QUAD)
        assert not report["passed"]
        assert not report["checks"]["orbit_closure"]
        assert not report["checks"]["m_plus_match"]
        assert report["closure_gap"] == math.inf

    def test_json_record(self):
        cert = solve_misiurewicz(QUAD, [0.1 + 1.05j], I_SPEC)
        doc = certificate_to_json(cert, QUAD)
        assert abs(complex(*doc["lambda"][0]) - 1j) < 1e-10
        assert doc["pattern"] == {"k0": 2, "tracked": [0],
                                  "patterns": [{"n": 2, "p": 2}]}
        assert doc["family"]["kind"] == "unicritical"
        assert len(doc["m_plus"]) == len(cert.m_plus)
        assert doc["sigma_min"] == cert.sigma_min

    @pytest.mark.parametrize("spec, seed", [(CHEB_SPEC, -1.9 + 0j),
                                            (I_SPEC, 0.1 + 1.05j)],
                             ids=["preperiodic", "period-two"])
    def test_json_round_trip(self, spec, seed):
        cert = solve_misiurewicz(QUAD, [seed], spec)
        doc = json.loads(json.dumps(certificate_to_json(cert, QUAD)))
        back = certificate_from_json(doc)
        assert back.spec == cert.spec
        assert np.array_equal(back.lam, cert.lam)
        assert np.array_equal(back.m_plus, cert.m_plus)
        assert back.multipliers == [tuple(m) for m in cert.multipliers]
        assert (back.residual, back.sigma_min) == (cert.residual, cert.sigma_min)
        assert verify_certificate(back, QUAD)["passed"]

    @settings(max_examples=200, deadline=None)
    @given(spec=st.sampled_from([CHEB_SPEC, I_SPEC, ActivitySpec(
               (0, 1), 2, (Preperiodic(1, 1), Preperiodic(2, 2)))]),
           data=st.data())
    def test_ndjson_round_trip_bits(self, tmp_path_factory, spec, data):
        # st.floats() draws +-0, +-inf, NaN and subnormals
        k = len(spec.tracked)
        lam = data.draw(st.lists(st.tuples(st.floats(), st.floats()), min_size=1, max_size=2))
        scalars = data.draw(st.tuples(st.floats(), st.floats()))
        mults = data.draw(st.lists(st.tuples(st.floats(), st.floats()), min_size=k, max_size=k))
        m_plus = data.draw(st.lists(st.floats(), max_size=8))
        cert = MisiurewiczCertificate(
            lam=np.array([complex(re, im) for re, im in lam]), residual=scalars[0],
            multipliers=mults, sigma_min=scalars[1], m_plus=np.array(m_plus, dtype=float),
            spec=spec)
        path = tmp_path_factory.getbasetemp() / "certificates.ndjson"
        bio.write_ndjson(path, [certificate_to_json(cert, QUAD)])
        [doc] = bio.read_ndjson(path)
        if not np.all(np.isfinite(cert.lam)):
            # a certificate's parameter must be finite; it is refused by name
            with pytest.raises(ValueError, match="lambda"):
                certificate_from_json(doc)
            return
        back = certificate_from_json(doc)

        def words(c):
            return np.concatenate([c.lam.view(float), [c.residual, c.sigma_min],
                                   np.array(c.multipliers, dtype=float).ravel(),
                                   np.asarray(c.m_plus, dtype=float)])

        sent, got = words(cert), words(back)
        nan = np.isnan(sent)
        assert back.spec == spec and back.lam.dtype == complex and len(back.lam) == len(lam)
        assert len(back.multipliers) == k and back.m_plus.shape == (len(m_plus),)
        assert got.shape == sent.shape and np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.uint64), sent[~nan].view(np.uint64))

    def test_motion_record_without_base_rejected(self):
        # a motion pattern is refused by name, with or without its base
        cert = solve_misiurewicz(QUAD, [-1.9 + 0j], CHEB_SPEC)
        doc = certificate_to_json(cert, QUAD)
        doc["pattern"]["patterns"] = [{"p": 1, "motion": True}]
        with pytest.raises(ValueError, match=r"patterns\[0\] is a motion pattern"):
            certificate_from_json(doc)

    @pytest.mark.parametrize("path", [
        ("lambda",), ("residual",), ("multipliers",), ("sigma_min",), ("m_plus",),
        ("pattern",), ("pattern", "k0"), ("pattern", "tracked"), ("pattern", "patterns"),
        ("pattern", "patterns", 0, "p")])
    def test_missing_key_named(self, path):
        # used to end in a KeyError, which the command line reports as a crash
        doc = certificate_to_json(solve_misiurewicz(QUAD, [-1.9 + 0j], CHEB_SPEC), QUAD)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
        with pytest.raises(ValueError, match=rf"missing (pattern\.)?{path[-1]}\b"):
            certificate_from_json(doc)

    def test_numerical_failure_reported_as_not_repelling(self, monkeypatch):
        cert = solve_misiurewicz(QUAD, [-1.9 + 0j], CHEB_SPEC)

        def on_critical(*args):
            raise CriticalOnOrbit("derivative below 1e-14 on the segment")

        monkeypatch.setattr(misiurewicz, "segment_multiplier", on_critical)
        report = verify_certificate(cert, QUAD)
        assert not report["passed"]
        assert not report["checks"]["repelling_landing"]

    def test_programming_error_propagates(self, monkeypatch):
        cert = solve_misiurewicz(QUAD, [-1.9 + 0j], CHEB_SPEC)

        def broken(*args):
            raise TypeError("not a numerical failure")

        monkeypatch.setattr(misiurewicz, "segment_multiplier", broken)
        with pytest.raises(TypeError):
            verify_certificate(cert, QUAD)


def test_two_critical_certificate_in_cubic_family():
    # mixed patterns keep the two chi rows independent away from the
    # merged-critical-point stratum
    spec = ActivitySpec((0, 1), 2, (Preperiodic(1, 1), Preperiodic(2, 2)))
    cert = solve_misiurewicz(CUBIC, [1.1 + 0.3j, 1.3 + 0.45j], spec)
    assert abs(cert.lam[0] - (1.14276581 + 0.30865578j)) < 1e-6
    assert abs(cert.lam[1] - (1.29555156 + 0.46419006j)) < 1e-6
    assert cert.residual <= 1e-10
    assert cert.sigma_min >= 1e-4 and abs(cert.lam[0]) >= 1e-3
    assert verify_certificate(cert, CUBIC)["passed"]


def test_landing_point_off_its_period_is_refused():
    # chi depends on n alone, so both labels solve to the same parameter;
    # its first landing point lies on a 2-cycle, which p = 1 misnames
    seed = [0.4j, 1.3 + 0.5j]
    wrong = ActivitySpec((0, 1), 2, (Preperiodic(2, 1), Preperiodic(1, 1)))
    with pytest.raises(NoConvergence, match="does not close under f\\^p: gap"):
        solve_misiurewicz(CUBIC, seed, wrong)
    right = ActivitySpec((0, 1), 2, (Preperiodic(2, 2), Preperiodic(1, 1)))
    assert verify_certificate(solve_misiurewicz(CUBIC, seed, right), CUBIC)["passed"]
