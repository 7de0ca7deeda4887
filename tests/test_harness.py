import math
from dataclasses import replace

import numpy as np
import pytest

import giasim.harness as hmod
from giasim.assignment import fixed_cyclic
from giasim.errors import AlignmentFailure, ContractViolation, DegenerateChannel, InfeasibleConfig
from giasim.gia import build_transceivers, link_images, user_rate
from giasim.harness import (
    ASSIGNMENT_SCHEMES,
    SchemeSpec,
    SweepSpec,
    TrialBuild,
    backhaul_overhead,
    baseline_fdma,
    baseline_rb,
    run_sweep,
    throughput,
    write_csv,
)
from giasim.linalg import complex_gaussian
from giasim.system import SystemConfig, draw_channels, trial_rng
from oracles import (TrialRecord, aggregate_metrics, effective_link_gains, feasibility_limits,
                     is_semi_unitary, record_of, run_cell, run_trial, summary)

CFG = SystemConfig(K=4, L=2, N_B=14, N_U=8, d_s=2, P=10 ** 2.5, sigma2=1.0)


@pytest.fixture(scope="module")
def pipeline():
    ch = draw_channels(CFG, trial_rng(606, 0))
    tset = build_transceivers(ch, CFG, fixed_cyclic(CFG.K))
    return ch, tset


class TestThroughput:
    def test_equals_alignment_rate_under_perfect_feedback(self, pipeline):
        ch, tset = pipeline
        for k in range(CFG.K):
            for i in range(CFG.L):
                tp = throughput(link_images(ch, tset.decoders, tset.patterns), CFG)[i, k]
                rate = user_rate(ch, tset, CFG)[i, k]
                assert tp == pytest.approx(rate, rel=1e-9)

    def test_zero_channel_zero_rate(self, pipeline):
        ch, tset = pipeline
        ch2 = draw_channels(CFG, trial_rng(606, 0))
        ch2.H[0, 0, 0] = 0.0
        images = link_images(ch2, tset.decoders, tset.patterns)
        assert throughput(images, CFG)[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_interference_only_hurts(self):
        # oracle on the closed form: logdet(I+C+A) - logdet(I+C) <= logdet(I+A)
        g = np.random.default_rng(3)
        for _ in range(50):
            X = complex_gaussian(g, (2, 2))
            Y = complex_gaussian(g, (2, 3))
            A = X @ X.conj().T
            C = Y @ Y.conj().T
            eye = np.eye(2)
            with_int = (
                np.linalg.slogdet(eye + C + A)[1] - np.linalg.slogdet(eye + C)[1]
            )
            without = np.linalg.slogdet(eye + A)[1]
            assert with_int <= without + 1e-12


class TestBaselines:
    def test_rb_no_alignment(self):
        g = trial_rng(17, 0)
        ch = draw_channels(CFG, g)  # the baseline's patterns continue this stream
        result = record_of(baseline_rb(TrialBuild(CFG, 17, 0, 0), CFG), CFG)
        assert result.sum_rate > 0
        # residual interference is strictly positive: no nulling happened
        patterns = {}
        from giasim.linalg import orthonormalize

        for k in range(CFG.K):
            for i in range(CFG.L):
                patterns[(i, k)] = orthonormalize(complex_gaussian(g, (CFG.N_U, CFG.d_s)))
        decoders = {
            (i, k): orthonormalize(ch.H[i, k, k] @ patterns[(i, k)])
            for k in range(CFG.K)
            for i in range(CFG.L)
        }
        scale = CFG.P / (CFG.d_s * CFG.sigma2)
        for k in range(CFG.K):
            for i in range(CFG.L):
                U = decoders[(i, k)]
                assert is_semi_unitary(U)
                # residual covariance, every interferer image formed pair by pair
                C = np.zeros((CFG.d_s, CFG.d_s), dtype=complex)
                for l in range(CFG.K):
                    for j in range(CFG.L):
                        if (j, l) != (i, k):
                            X = U.conj().T @ ch.H[j, l, k] @ patterns[(j, l)]
                            C += scale * (X @ X.conj().T)
                assert np.trace(C).real > 1e-3

    def test_rb_below_alignment_at_high_snr(self):
        cfg = CFG.at_snr_db(30.0)
        gia_rates, rb_rates = [], []
        for t in range(200):
            gia_rates.append(run_trial(cfg, SchemeSpec(assignment="fixed"), t, seed=4).sum_rate)
            rb_rates.append(run_trial(cfg, SchemeSpec(assignment="rb"), t, seed=4).sum_rate)
        assert np.mean(rb_rates) < np.mean(gia_rates)

    def test_fdma_rate_formula(self):
        ch = draw_channels(CFG, trial_rng(18, 0))
        result = record_of(baseline_fdma(TrialBuild(CFG, 18, 0, 0), CFG), CFG)
        n = CFG.user_count
        for k in range(CFG.K):
            for i in range(CFG.L):
                Hd = ch.H[i, k, k]
                ev = np.linalg.eigvalsh(Hd.conj().T @ Hd).real[::-1][: CFG.d_s]
                expected = float(
                    np.sum(np.log1p(n * CFG.P / (CFG.d_s * CFG.sigma2) * ev))
                ) / n
                assert result.user_rates[(i, k)] == pytest.approx(expected, rel=1e-12)
        assert result.sum_rate > 0

    def test_fdma_dof_per_orthogonal_share(self):
        # orthogonalization keeps only d_s degrees of freedom in total
        rates = {}
        for snr in (30.0, 40.0):
            cfg = CFG.at_snr_db(snr)
            vals = [
                run_trial(cfg, SchemeSpec(assignment="fdma"), t, seed=6).sum_rate
                for t in range(100)
            ]
            rates[snr] = float(np.mean(vals))
        slope = (rates[40.0] - rates[30.0]) / (math.log(10 ** 4.0) - math.log(10 ** 3.0))
        assert slope == pytest.approx(CFG.d_s, rel=0.1)


class TestBackhaulOverhead:
    def test_reference_numbers(self):
        cfg = SystemConfig(K=4, L=2, N_B=14, N_U=8, d_s=2)
        one = backhaul_overhead("one_sided", cfg, B=300, N_C=1)
        assert (one.before_cc, one.assignment_bits, one.after_cc, one.after_bits) == (
            0, (16, 16), 128, 900,
        )
        two = backhaul_overhead("two_sided", cfg, B=300)
        assert (two.before_cc, two.assignment_bits, two.after_cc, two.after_bits) == (
            384, (16, 52), 0, 900,
        )
        cen = backhaul_overhead("centralized", cfg, B=300)
        assert (cen.before_cc, cen.assignment_bits, cen.after_cc, cen.after_bits) == (
            960, (0, 0), 96, 900,
        )
        fix = backhaul_overhead("fixed", cfg)
        assert (fix.before_cc, fix.assignment_bits, fix.after_cc, fix.after_bits) == (
            0, None, 128, 0,
        )

    def test_cycle_count_dependence(self):
        cfg = SystemConfig(K=4, L=2, N_B=14, N_U=8, d_s=2)
        assert backhaul_overhead("one_sided", cfg, B=0, N_C=3).assignment_bits == (24, 24)

    def test_unknown_scheme(self):
        with pytest.raises(ContractViolation):
            backhaul_overhead("oracle", CFG)


def test_rates_depend_on_powers_only_through_snr():
    # P and sigma2 scaled together leave every scheme's rates unchanged; the
    # receiver side of the two-sided preferences once read P alone
    base = CFG.at_snr_db(10.0)
    schemes = [SchemeSpec(assignment=name) for name in ASSIGNMENT_SCHEMES]
    schemes.append(SchemeSpec(assignment="two_sided", bit_alloc="dba", bits_budget=100))
    for c in (1e-3, 1e3):
        scaled = replace(base, P=base.P * c, sigma2=base.sigma2 * c)
        for t in range(8):
            builds, scaled_builds = [], []  # each trial's draw, shared by its schemes
            for scheme in schemes:
                want = run_cell(builds, base, scheme, t, 52).user_rates
                got = run_cell(scaled_builds, scaled, scheme, t, 52).user_rates
                assert got == pytest.approx(want, rel=1e-12), (c, scheme.label, t)


class TestRunTrial:
    def test_deterministic(self):
        a = run_trial(CFG, SchemeSpec(assignment="fixed"), 7, seed=100)
        b = run_trial(CFG, SchemeSpec(assignment="fixed"), 7, seed=100)
        assert a.sum_rate == b.sum_rate
        assert a.user_rates == b.user_rates
        q1 = run_trial(CFG, SchemeSpec(assignment="fixed", bit_alloc="dba", bits_budget=64), 7, seed=100)
        q2 = run_trial(CFG, SchemeSpec(assignment="fixed", bit_alloc="dba", bits_budget=64), 7, seed=100)
        assert q1.sum_rate == q2.sum_rate
        assert np.array_equal(q1.bits, q2.bits)

    def test_sum_consistency(self):
        r = run_trial(CFG, SchemeSpec(assignment="two_sided"), 3, seed=9)
        assert r.sum_rate == pytest.approx(sum(r.user_rates.values()), rel=1e-12)
        assert r.min_cell_rate <= r.sum_rate
        assert r.assignment.is_strict(CFG.K)

    def test_scheme_dominance_same_realization(self):
        values = {}
        for name in ("fixed", "one_sided", "two_sided", "centralized_sum", "worst_sum"):
            values[name] = run_trial(CFG, SchemeSpec(assignment=name), 11, seed=13).sum_rate
        top = values.pop("centralized_sum")
        bottom = values.pop("worst_sum")
        for name, v in values.items():
            assert top >= v - 1e-9, name
            assert v >= bottom - 1e-9, name

    def test_infeasible_config_raises(self):
        bad = SystemConfig(K=3, L=2, N_B=9, N_U=6, d_s=2)
        with pytest.raises(InfeasibleConfig):
            run_trial(bad, SchemeSpec(assignment="fixed"), 0, seed=0)

    @pytest.mark.parametrize("failure", [DegenerateChannel, AlignmentFailure])
    def test_degenerate_draw_resampled_once(self, monkeypatch, failure):
        real = hmod._evaluate_trial
        calls = {"n": 0}

        def flaky(build, cfg, scheme, resamples):
            calls["n"] += 1
            if calls["n"] == 1:
                raise failure("synthetic rank collapse")
            return real(build, cfg, scheme, resamples)

        monkeypatch.setattr(hmod, "_evaluate_trial", flaky)
        result = run_trial(CFG, SchemeSpec(assignment="fixed"), 5, seed=31)
        assert result.resamples == 1
        assert calls["n"] == 2

    def test_two_degenerate_draws_abort_with_diagnostics(self, monkeypatch):
        def always_bad(*args, **kwargs):
            raise DegenerateChannel("synthetic rank collapse")

        monkeypatch.setattr(hmod, "_evaluate_trial", always_bad)
        with pytest.raises(DegenerateChannel, match="failed twice"):
            run_trial(CFG, SchemeSpec(assignment="fixed"), 5, seed=31)

    def test_square_patterns_cannot_be_quantized(self):
        # single-antenna single-stream users have point-like pattern manifolds
        cfg = SystemConfig(K=3, L=1, N_B=3, N_U=1, d_s=1)
        with pytest.raises(ContractViolation, match="N_U > d_s"):
            run_trial(cfg, SchemeSpec(assignment="fixed", bit_alloc="eba", bits_budget=8), 0, seed=0)

    def test_quantized_trial_fields(self):
        r = run_trial(
            CFG, SchemeSpec(assignment="fixed", bit_alloc="eba", bits_budget=32), 0, seed=21
        )
        assert r.bits.sum() == 32
        assert set(r.rinr_per_cell) == set(range(CFG.K))
        for k in range(CFG.K):
            assert 0.0 <= r.rinr_per_cell[k] <= r.bound_per_cell[k] * (1 + 1e-9)


class TestOtherGeometries:
    """The pipeline is not tied to the 4-cell reference dimensions."""

    @pytest.mark.parametrize(
        "K,L,N_B,N_U,d_s,worst",
        [
            (4, 2, 14, 9, 2, False),   # spare user antennas: wider null spaces
            (5, 2, 18, 10, 2, True),   # five-cell minimal cluster
            (3, 2, 10, 6, 2, True),
            (4, 2, 7, 4, 1, True),     # single stream per user
            (3, 3, 7, 5, 1, True),     # three users per cell
        ],
    )
    def test_quantized_trial_end_to_end(self, K, L, N_B, N_U, d_s, worst):
        from giasim.system import validate_feasibility

        cfg = SystemConfig(K=K, L=L, N_B=N_B, N_U=N_U, d_s=d_s, P=316.0)
        rep = validate_feasibility(cfg)
        assert rep.feasible and feasibility_limits(cfg)["worst_case"] == worst
        r = run_trial(
            cfg, SchemeSpec(assignment="two_sided", bit_alloc="dba", bits_budget=15 * K * L),
            0, seed=K * 100 + L,
        )
        assert r.assignment.is_strict(K)
        assert r.sum_rate > 0
        for k in range(K):
            assert 0.0 <= r.rinr_per_cell[k] <= r.bound_per_cell[k] * (1 + 1e-9) + 1e-12


def test_five_cell_multiplexing_slope():
    # the full multiplexing gain K*L*d_s also materializes off the 4-cell
    # reference geometry
    cfg = SystemConfig(K=5, L=2, N_B=18, N_U=10, d_s=2)
    totals = {1e3: 0.0, 1e4: 0.0}
    trials = 60
    for t in range(trials):
        ch = draw_channels(cfg, trial_rng(999, t))
        tset = build_transceivers(ch, cfg, fixed_cyclic(cfg.K))
        for k in range(cfg.K):
            for i in range(cfg.L):
                g = effective_link_gains(ch, tset, i, k)
                for snr in totals:
                    totals[snr] += np.sum(np.log1p(snr / cfg.d_s * g))
    slope = (totals[1e4] - totals[1e3]) / trials / math.log(10.0)
    assert slope == pytest.approx(cfg.K * cfg.L * cfg.d_s, rel=0.10)


def test_pathwise_bound_survives_emulated_quantization():
    # large budgets route every user through the emulated codebook search;
    # the deterministic bound must still hold on each realization
    for t in range(30):
        r = run_trial(
            CFG, SchemeSpec(assignment="fixed", bit_alloc="dba", bits_budget=400),
            t, seed=97,
        )
        assert np.sum(r.bits > 12) >= 6  # bulk of the users beyond explicit search
        for k in range(CFG.K):
            assert r.rinr_per_cell[k] <= r.bound_per_cell[k] * (1 + 1e-9)


class TestAggregation:
    def test_single_trial(self):
        r = run_trial(CFG, SchemeSpec(assignment="fixed"), 0, seed=2)
        agg = aggregate_metrics([r])
        assert agg["r_sum"] == pytest.approx(r.sum_rate)
        assert agg["r_sum_stderr"] == 0.0
        assert agg["trials"] == 1

    def test_identical_trials_zero_stderr(self):
        r = run_trial(CFG, SchemeSpec(assignment="fixed"), 0, seed=2)
        agg = aggregate_metrics([r, r])
        assert agg["r_sum_stderr"] == 0.0

    def test_hand_computed_means(self):
        def synth(s, m):
            return TrialRecord(user_rates={}, sum_rate=s, min_cell_rate=m)

        agg = aggregate_metrics([synth(1.0, 0.5), synth(2.0, 1.0), synth(3.0, 4.5)])
        assert agg["r_sum"] == pytest.approx(2.0)
        assert agg["r_min"] == pytest.approx(2.0)
        assert agg["r_sum_stderr"] == pytest.approx(np.std([1, 2, 3], ddof=1) / math.sqrt(3))
        assert agg["rinr_db"] is None

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            aggregate_metrics([])
        with pytest.raises(ContractViolation):
            hmod._aggregate(np.empty((5, 3, 0)))

    @pytest.mark.parametrize("trials", [1, 2, 7, 8, 9, 16, 17, 129, 200])
    def test_stacked_aggregate_equals_per_cell_oracle(self, trials):
        # numpy sums 8 or more values pairwise: every cell of the stacked call
        # must take the same sums as its own 1-D reduction
        rng = np.random.default_rng(trials)

        def synth(feedback):
            r = TrialRecord(user_rates={}, sum_rate=float(rng.lognormal(3.0, 2.0)),
                            min_cell_rate=float(rng.lognormal(0.0, 2.0)),
                            resamples=int(rng.integers(2)))
            if feedback:
                r.rinr_per_cell = dict(enumerate(rng.lognormal(0.0, 3.0, 4).tolist()))
                r.bound_per_cell = dict(enumerate(rng.lognormal(2.0, 3.0, 4).tolist()))
            return r

        cells = [[synth(c % 3 != 0) for _ in range(trials)] for c in range(7)]
        cells.append([synth(True) for _ in range(trials)])
        for r in cells[-1]:  # no residual interference at all: -inf dB
            r.rinr_per_cell = dict.fromkeys(range(4), 0.0)
        records = np.array([[summary(r) for r in cell] for cell in cells])
        stacked = hmod._aggregate(records.transpose(2, 0, 1))
        assert stacked == [aggregate_metrics(cell) for cell in cells]
        assert stacked[-1]["rinr_db"] == -math.inf and stacked[0]["rinr_db"] is None


class TestSweep:
    def test_grid_row_count(self, tmp_path):
        spec = SweepSpec(
            variable="snr_db",
            grid=tuple(float(v) for v in range(0, 41, 5)),
            trials=2,
            schemes=(SchemeSpec(assignment="fixed"),),
            seed=5,
        )
        rows = run_sweep(spec, CFG, out_path=str(tmp_path / "out.csv"))
        assert len(rows) == 9
        assert all(row["scheme"] == "fixed" for row in rows)

    def test_csv_byte_identical(self, tmp_path):
        spec = SweepSpec(
            variable="B",
            grid=(16, 32),
            trials=3,
            schemes=(SchemeSpec(assignment="fixed", bit_alloc="dba"),),
            seed=77,
        )
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_sweep(spec, CFG, out_path=str(p1))
        run_sweep(spec, CFG, out_path=str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        text = p1.read_text()
        assert text.splitlines()[0] == (
            "variable,value,scheme,r_sum,r_sum_stderr,r_min,r_min_stderr,"
            "rinr_db,bound_db,trials,resamples"
        )

    def test_log_base_column_scaling(self, tmp_path):
        spec_e = SweepSpec(
            variable="snr_db", grid=(20.0,), trials=2,
            schemes=(SchemeSpec(assignment="fixed"),), seed=3, log_base="e",
        )
        spec_2 = SweepSpec(
            variable="snr_db", grid=(20.0,), trials=2,
            schemes=(SchemeSpec(assignment="fixed"),), seed=3, log_base="2",
        )
        r_e = run_sweep(spec_e, CFG)[0]["r_sum"]
        r_2 = run_sweep(spec_2, CFG)[0]["r_sum"]
        assert r_2 == pytest.approx(r_e / math.log(2.0), rel=1e-12)

    def test_snr_beyond_the_float_range_is_a_contract_violation(self, tmp_path):
        # 10 ** (snr_db / 10) overflows a float above about 3082 dB, which
        # must end in a typed error before any draw or CSV, not an OverflowError
        spec = SweepSpec(variable="snr_db", grid=(25.0, 4000.0), trials=1,
                         schemes=(SchemeSpec(assignment="fixed"),))
        with pytest.raises(ContractViolation, match="4000.0 dB overflows"):
            run_sweep(spec, CFG, out_path=str(tmp_path / "x.csv"))
        assert not (tmp_path / "x.csv").exists()

    def test_snr_over_the_ceiling_is_a_contract_violation(self, tmp_path):
        # 3080 dB is a finite power, but the rate path's products overflowed
        # there and the rows came out NaN or inf
        spec = SweepSpec(variable="snr_db", grid=(25.0, 3080.0), trials=1,
                         schemes=(SchemeSpec(assignment="fixed"),))
        with pytest.raises(ContractViolation, match="ceiling"):
            run_sweep(spec, CFG, out_path=str(tmp_path / "x.csv"))
        assert not (tmp_path / "x.csv").exists()

    def test_every_scheme_is_finite_at_the_snr_ceiling(self):
        # 1000 dB is SNR_CEILING itself; pytest turns any numpy overflow
        # warning into a failure
        schemes = tuple(SchemeSpec(assignment=a) for a in ASSIGNMENT_SCHEMES) + (
            SchemeSpec(assignment="fixed", bit_alloc="dba", bits_budget=100),
            SchemeSpec(assignment="two_sided", bit_alloc="dba", bits_budget=300),
            SchemeSpec(assignment="two_sided", bit_alloc="eba", bits_budget=300))
        spec = SweepSpec(variable="snr_db", grid=(1000.0,), trials=1, schemes=schemes, seed=1)
        rows = run_sweep(spec, CFG)
        assert len(rows) == len(schemes)
        for row in rows:
            fed_back = "+" in row["scheme"]
            assert math.isfinite(row["r_sum"]) and math.isfinite(row["r_min"]), row
            assert math.isfinite(row["rinr_db"]) if fed_back else row["rinr_db"] is None, row

    def test_write_failure_surfaces_path(self, tmp_path):
        with pytest.raises(ContractViolation, match="no/such/dir"):
            write_csv([], str(tmp_path / "no" / "such" / "dir" / "x.csv"))

    def test_bad_spec_rejected(self):
        with pytest.raises(ContractViolation):
            SweepSpec(variable="power", grid=(1,), trials=1, schemes=())
        with pytest.raises(ContractViolation):
            SweepSpec(variable="B", grid=(), trials=1, schemes=())

    @pytest.mark.parametrize("make", [
        lambda: SystemConfig(K=4.0, L=2, N_B=14, N_U=8, d_s=2),
        lambda: SystemConfig(K=4, L=True, N_B=14, N_U=8, d_s=2),
        lambda: SystemConfig(K=4, L=2, N_B=14, N_U=8, d_s=2, P="100"),
        lambda: SweepSpec("snr_db", (25.0,), 2.5, (SchemeSpec(),)),
        lambda: SweepSpec("snr_db", (25.0,), 2, (SchemeSpec(),), seed=1.5),
        lambda: SweepSpec("snr_db", ("25",), 2, (SchemeSpec(),)),
        lambda: SweepSpec("snr_db", (math.nan,), 2, (SchemeSpec(),)),
        lambda: SweepSpec("snr_db", (25.0,), 2, ("fixed",)),
        lambda: SweepSpec("snr_db", (25.0,), 2, SchemeSpec()),
        lambda: SweepSpec("snr_db", 25.0, 2, (SchemeSpec(),)),
        lambda: SchemeSpec(codebook_seed=1.5),
    ], ids=["K_float", "L_bool", "P_string", "trials_fractional", "seed_fractional",
            "grid_string", "grid_nan", "scheme_name", "scheme_not_in_a_tuple",
            "grid_not_a_tuple", "codebook_seed_fractional"])
    def test_records_check_types(self, make):
        # each once ended in an untyped TypeError or AttributeError inside
        # run_sweep, or was accepted outright
        with pytest.raises(ContractViolation):
            make()

    def test_records_take_numpy_numbers(self):
        cfg = SystemConfig(K=np.int64(4), L=2, N_B=14, N_U=8, d_s=2, P=np.float64(10.0))
        spec = SweepSpec("snr_db", (np.float64(25.0), 30), np.int32(2), (SchemeSpec(),),
                         np.uint8(3))
        plain = SweepSpec("snr_db", (25.0, 30.0), 2, (SchemeSpec(),), 3)
        assert run_sweep(spec, cfg) == run_sweep(plain, replace(cfg, K=4, P=10.0))

    def test_fractional_bit_budget_rejected(self):
        # the budget is cast to int, so 40.9 would run at 40 bits under a 40.9 label
        with pytest.raises(ContractViolation, match="whole numbers"):
            SweepSpec(
                variable="B", grid=(40.9,), trials=1,
                schemes=(SchemeSpec(assignment="fixed", bit_alloc="dba"),),
            )

    def test_boolean_bit_budget_rejected(self):
        # float(True).is_integer() holds, so True would run as a 1-bit budget
        with pytest.raises(ContractViolation, match="whole numbers"):
            SweepSpec(
                variable="B", grid=(True,), trials=1,
                schemes=(SchemeSpec(assignment="fixed", bit_alloc="dba"),),
            )

    def test_unsupported_log_base_rejected_at_construction(self):
        with pytest.raises(ContractViolation, match="unsupported log base"):
            SweepSpec(
                variable="snr_db", grid=(25.0,), trials=1,
                schemes=(SchemeSpec(assignment="fixed"),), log_base="10",
            )

    def test_empty_scheme_tuple_rejected(self):
        with pytest.raises(ContractViolation, match="scheme"):
            SweepSpec(variable="snr_db", grid=(25.0,), trials=1, schemes=())

    def test_scheme_rejects_negative_bit_budget(self):
        with pytest.raises(ContractViolation, match="negative bit budget"):
            SchemeSpec(assignment="fixed", bit_alloc="dba", bits_budget=-1)

    @pytest.mark.parametrize("budget", [1.5, 100.0, True, "100", None])
    def test_scheme_rejects_a_budget_that_is_not_a_whole_number(self, budget):
        with pytest.raises(ContractViolation, match="not a whole number"):
            SchemeSpec(assignment="fixed", bit_alloc="dba", bits_budget=budget)

    def test_bit_budget_cap(self):
        # float64 holds every budget up to 2^53 exactly, so the water-filling
        # split still sums to it there; one bit more is refused
        cap = hmod.fb.BITS_BUDGET_CAP
        assert SchemeSpec(bit_alloc="dba", bits_budget=np.int64(cap)).bits_budget == cap
        with pytest.raises(ContractViolation, match="exceeds the cap"):
            SchemeSpec(bit_alloc="dba", bits_budget=cap + 1)
        lam = np.random.default_rng(3).uniform(0.1, 2.0, CFG.user_count)
        for bits in (hmod.fb.dba_allocate(lam, cap, CFG.d_s, CFG.N_U),
                     hmod.fb.eba_allocate(cap, CFG.user_count)):
            assert sum(bits.tolist()) == cap
        for budget in (cap + 1, 2 ** 63 - 1, 10 ** 23):
            with pytest.raises(ContractViolation, match="exceeds the cap"):
                hmod.fb.dba_allocate(lam, budget, CFG.d_s, CFG.N_U)
            with pytest.raises(ContractViolation, match="exceeds the cap"):
                hmod.fb.eba_allocate(budget, CFG.user_count)

    def test_negative_seeds_rejected(self):
        with pytest.raises(ContractViolation, match="negative seed"):
            SweepSpec(variable="snr_db", grid=(25.0,), trials=1, schemes=(), seed=-1)
        with pytest.raises(ContractViolation, match="negative codebook seed"):
            SchemeSpec(assignment="fixed", bit_alloc="dba", codebook_seed=-1)

    def test_scheme_rejects_unknown_proposer(self):
        with pytest.raises(ContractViolation, match="proposer"):
            SchemeSpec(assignment="two_sided", proposer="cells")

    @pytest.mark.parametrize("baseline", ["rb", "fdma"])
    @pytest.mark.parametrize("alloc", ["dba", "eba"])
    def test_scheme_rejects_feedback_on_baselines(self, baseline, alloc):
        with pytest.raises(ContractViolation, match="baseline has no limited-feedback stage"):
            SchemeSpec(assignment=baseline, bit_alloc=alloc, bits_budget=100)
        assert SchemeSpec(assignment=baseline).label == baseline
