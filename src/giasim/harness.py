"""Monte-Carlo experiment driver.

Runs seeded trials end to end (channel draw, assignment, transceivers,
optional quantized feedback, rates and residual interference), aggregates
them over sweep grids and emits deterministic CSV. Two non-alignment
baselines are included for comparison curves, plus the closed-form backhaul
overhead accounting per assignment scheme.
"""

from __future__ import annotations

import copy
import csv
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import assignment as asg
from . import feedback as fb
from . import gia
from .errors import ContractViolation, DegenerateChannel
from .linalg import left_null_space, orthonormalize, psd_eigvals
from .system import (SystemConfig, check_real, check_whole, draw_channels, per_config,
                     require_draw_fits, require_feasible, trial_rng)

ASSIGNMENT_SCHEMES = (
    "fixed",
    "one_sided",
    "two_sided",
    "centralized_sum",
    "centralized_min",
    "worst_sum",
    "worst_min",
    "rb",
    "fdma",
)

EXPLICIT_BIT_LIMIT = 12  # per-user bits; above this, random-codebook search is emulated

CSV_COLUMNS = (
    "variable",
    "value",
    "scheme",
    "r_sum",
    "r_sum_stderr",
    "r_min",
    "r_min_stderr",
    "rinr_db",
    "bound_db",
    "trials",
    "resamples",
)


@dataclass(frozen=True)
class SchemeSpec:
    """How one curve is produced: assignment rule plus feedback setup."""

    assignment: str = "fixed"
    bit_alloc: str = "none"        # none | dba | eba
    bits_budget: int = 0
    codebook_seed: int = 1
    proposer: str = "receivers"

    def __post_init__(self):
        if self.assignment not in ASSIGNMENT_SCHEMES:
            raise ContractViolation(f"unknown assignment scheme {self.assignment!r}")
        if self.bit_alloc not in ("none", "dba", "eba"):
            raise ContractViolation(f"unknown bit allocation {self.bit_alloc!r}")
        fb.check_budget(self.bits_budget)
        check_whole(self.codebook_seed, "codebook seed")
        if self.codebook_seed < 0:
            raise ContractViolation(f"negative codebook seed {self.codebook_seed}")
        if self.proposer not in ("receivers", "providers"):
            raise ContractViolation(f"unknown proposer side {self.proposer!r}")
        if self.assignment in ("rb", "fdma") and self.bit_alloc != "none":
            raise ContractViolation(
                f"the {self.assignment} baseline has no limited-feedback stage; "
                f"bit allocation {self.bit_alloc!r} does not apply"
            )

    @property
    def label(self) -> str:
        if self.bit_alloc == "none":
            return self.assignment
        return f"{self.assignment}+{self.bit_alloc}"


def throughput(images: np.ndarray, cfg) -> np.ndarray:
    """Rate of every user in nats, as an (..., L, K) array, treating residual
    interference as noise.

    Every transmitter's image through a user's decoder gives one
    noise-normalized covariance: A, the desired signal's, and C, the sum of
    all the others in cell-major order (the user's own term masked to zero).
    Evaluated as logdet(I + C + A) - logdet(I + C); both arguments are
    Hermitian positive definite, which keeps the evaluation stable. With
    perfect feedback C vanishes on the desired links and this reduces to the
    alignment rate. ``images`` is the (..., L, K, L, K, d_s, d_s)
    ``link_images`` stack of the decoders and the transmit patterns. The
    power-free Gram of every image is formed once and scaled by P/(d_s sigma2)
    elementwise; a tuple of configs puts one scaling per config in front.
    """
    L, K, d_s = images.shape[-6], images.shape[-5], images.shape[-1]
    gram = images @ images.conj().swapaxes(-1, -2)
    cov = per_config(cfg, lambda c: c.P / (c.d_s * c.sigma2), gram.ndim) * gram
    own = np.eye(L * K, dtype=bool).reshape(L, K, L, K, 1, 1)
    others = np.where(own, 0.0, cov)
    C = sum(others[..., j, l, :, :] for l in range(K) for j in range(L))
    A = np.einsum("...ikikab->...ikab", cov)
    eye = np.eye(d_s)
    full = np.sum(np.log(psd_eigvals(eye + C + A)), axis=-1)
    return full - np.sum(np.log(psd_eigvals(eye + C)), axis=-1)


@lru_cache(maxsize=128)
def _cached_codebook(M: int, N: int, B: int, user_key: int, seed: int) -> fb.Codebook:
    rng = np.random.default_rng([seed, 101, user_key, B])
    return fb.generate_codebook(M, N, B, rng)


def _assignment_key(assignment: asg.Assignment) -> tuple:
    return tuple(sorted(assignment.provider_of.items()))


@dataclass(frozen=True)
class Plan:
    """What the cells of a sweep ask of each draw: the configs they run at, in grid
    order, and per (assignment rule, proposer, codebook seed) the (bit allocation,
    budget) entries they feed back, in order."""

    configs: tuple = ()
    entries: dict = field(default_factory=dict)


class TrialBuild:
    """The power-free work on one channel draw, computed once and shared by
    every cell (grid point and scheme) of a trial.

    Each piece is computed by the same call on the same operands as a
    from-scratch evaluation would use, so sharing it changes no bit of any
    result. Two memos hold it: ``_once`` the power-free pieces, by stage and
    key, and ``rates`` everything that depends on P (the receiver side of the
    preferences, the assignments that read it or P, the rates), by key and
    configuration, each evaluated at once for every config of the ``plan``
    (a ``Plan``), one slice per config; a centralized search runs at its own
    config alone.
    """

    def __init__(self, cfg: SystemConfig, seed: int, trial_index: int, attempt: int,
                 plan: Plan | None = None):
        rng = trial_rng(seed, trial_index, stream=attempt)
        self.trial_index = trial_index
        self.ch = draw_channels(cfg, rng)
        self._rng_after_draw = rng  # the rb baseline continues a copy of this stream
        self._plan = plan or Plan()
        # a matching or centralized rule reads every pair: form them all at the first request
        self._all_pairs = any(rule not in ("fixed", "rb", "fdma") for rule, _, _ in self._plan.entries)
        self._pieces = {}  # (stage, key) -> power-free piece
        self._rates = {}   # (key, config) -> value that depends on P; keys lead with their kind

    def _once(self, stage: str, key, build):
        """Piece ``stage`` of ``key``, ``build()`` on the first request."""
        if (stage, key) not in self._pieces:
            self._pieces[stage, key] = build()
        return self._pieces[stage, key]

    def rates(self, cfg: SystemConfig, key: tuple, evaluate, alone: bool = False):
        """The value of ``key`` at ``cfg``, memoized per (key, config). A miss calls
        ``evaluate(configs)`` once for ``cfg`` and, unless ``alone``, every planned
        config that lacks ``key``; it gives one {key: value} dict per config, holding
        ``key`` and any keys evaluated alongside."""
        value = self._rates.get((key, cfg))
        if value is None:
            todo = tuple(c for c in dict.fromkeys((cfg, *(() if alone else self._plan.configs)))
                         if (key, c) not in self._rates)
            for c, values in zip(todo, evaluate(todo)):
                self._rates.update(((k, c), v) for k, v in values.items())
            value = self._rates[key, cfg]
        return value

    def potentials(self, cfg: SystemConfig, pairs=None) -> gia.Potentials:
        """The pair pieces, the first request forming ``pairs`` (all if None, or if
        the plan holds a rule that reads every pair); ``take`` forms any pair that
        a later read lacks."""
        return self._once("potentials", None, lambda: gia.build_potentials(
            self.ch, cfg, gia.cell_pairs(cfg.K) if pairs is None or self._all_pairs else pairs))

    def preferences(self, cfg: SystemConfig, two_sided: bool) -> asg.PreferenceProfile:
        """The provider side, plus the receiver side for ``cfg`` when two-sided."""
        provider_side = self._once("provider side", None, lambda: asg.build_preferences(
            self.ch, cfg, self.potentials(cfg)))
        if not two_sided:
            return provider_side
        return self.rates(cfg, ("receiver side",), lambda configs: [
            {("receiver side",): prefs} for prefs in asg.build_preferences(
                self.ch, configs, self.potentials(cfg), two_sided=True,
                provider_side=provider_side)])

    def baseline(self, cfg: SystemConfig, name: str) -> np.ndarray:
        """The power-free part of baseline ``name``, formed once per draw. rb: the
        ``link_images`` of random patterns, drawn in flat (cell, user) order from
        the stream after the channel draw, through matched-filter decoders. fdma:
        the top d_s eigenvalues of every user's direct-channel Gram, (L, K, d_s)."""
        def build():
            if name == "rb":
                # one draw in the order of a complex_gaussian call per user: real, then imaginary
                x = copy.deepcopy(self._rng_after_draw).standard_normal(
                    (cfg.user_count, 2, cfg.N_U, cfg.d_s))
                patterns = orthonormalize(((x[:, 0] + 1j * x[:, 1]) / np.sqrt(2.0)).reshape(
                    cfg.K, cfg.L, cfg.N_U, cfg.d_s).swapaxes(0, 1))
                decoders = orthonormalize(gia.direct_channels(self.ch) @ patterns)
                return gia.link_images(self.ch, decoders, patterns)
            direct = gia.direct_channels(self.ch)
            gains = psd_eigvals(direct.conj().swapaxes(-1, -2) @ direct)
            return gains[..., ::-1][..., : cfg.d_s]

        return self._once("baseline", name, build)

    def assignment(self, cfg: SystemConfig, scheme: SchemeSpec) -> asg.Assignment:
        """The strict assignment of ``scheme``'s rule: once per draw for ``fixed`` and
        ``one_sided``, whose provider side does not depend on P, else per config
        and proposer. A two-sided miss matches at every planned config, whose
        receiver sides came in one call; a centralized search runs at its own
        config alone, so that a search error stays with its grid point's cell."""
        rule = scheme.assignment
        if rule in ("fixed", "one_sided"):
            return self._once("assignment", rule, lambda: self._choose(cfg, scheme))
        key = ("assignment", rule, scheme.proposer)
        return self.rates(cfg, key, lambda configs: [
            {key: self._choose(c, scheme)} for c in configs], alone=rule != "two_sided")

    def _choose(self, cfg: SystemConfig, scheme: SchemeSpec) -> asg.Assignment:
        rule = scheme.assignment
        if rule == "fixed":
            return asg.fixed_cyclic(cfg.K)
        if rule == "one_sided":
            prefs = self.preferences(cfg, two_sided=False)
            weak, _ = asg.fca_match(prefs)
            if cfg.K <= 6:  # unread: the traced benchmark counts these verdicts
                asg.is_stable(weak, prefs, "one_sided")
            return asg.breaking_step(weak, prefs)
        if rule == "two_sided":
            prefs = self.preferences(cfg, two_sided=True)
            matched, _ = asg.gale_shapley(prefs, scheme.proposer)
            if matched.lone is None:  # unread: the traced benchmark counts these verdicts
                asg.is_stable(matched, prefs, "two_sided")
            return asg.breaking_step(matched, prefs)
        objective = "sum_rate" if rule.endswith("_sum") else "min_cell_rate"
        sense = "worst" if rule.startswith("worst") else "best"
        return asg.centralized_search(
            cfg, self.potentials(cfg), lambda a: self.user_rates(cfg, self.transceivers(cfg, a)),
            objective, sense)[0]

    def user_rates(self, cfg: SystemConfig, tset: gia.TransceiverSet) -> np.ndarray:
        """``gia.user_rate`` of ``tset`` at ``cfg``, evaluated at every planned config
        in one call."""
        key = ("user rates", _assignment_key(tset.assignment))
        return self.rates(cfg, key, lambda configs: [
            {key: rates} for rates in gia.user_rate(self.ch, tset, configs)])

    def transceivers(self, cfg: SystemConfig, chosen: asg.Assignment) -> gia.TransceiverSet:
        key = _assignment_key(chosen)
        return self._once("transceivers", key, lambda: gia.build_transceivers(
            self.ch, cfg, chosen, self.potentials(cfg, [(p, r) for r, p in key])))

    def leakage(self, cfg: SystemConfig, tset: gia.TransceiverSet) -> tuple:
        """Largest leakage eigenvalue of every user, as an (L, K) array, and the
        left null bases of the patterns, (L, K, N_U, N_U - d_s), both stacked."""
        def build():
            receivers = [r for _, r in sorted(tset.assignment.receivers().items())]
            null_bases = left_null_space(tset.patterns)
            _, lam = fb.omega_matrix(
                self.ch.H[:, range(cfg.K), receivers], tset.patterns, null_bases)
            return lam, null_bases

        return self._once("leakage", _assignment_key(tset.assignment), build)

    def quantized(self, cfg: SystemConfig, scheme: SchemeSpec, tset: gia.TransceiverSet,
                  bits: list) -> tuple[np.ndarray, np.ndarray]:
        """Every pattern quantized at its count in each row of ``bits`` (one per
        entry, users in flat (cell, user) order): the (entries, L, K, N_U, d_s)
        quantized patterns and the (entries, L, K) squared chordal distances.
        Explicit codebook search up to the limit, one per entry and user, on
        codebooks fixed per (user, bit count) across trials, as offline books
        would be; above it, every such entry and user emulated in one call on
        the frame of the assignment and codebook seed, formed on first use from
        each user's stream [codebook_seed, 211, trial, user]. A (user, bit count)
        is searched once per (assignment, codebook seed), whichever entries share it,
        and emulated once per call."""
        L, K, N_U, d_s, n = cfg.L, cfg.K, cfg.N_U, cfg.d_s, cfg.user_count
        flat = lambda a: a.swapaxes(0, 1).reshape((n,) + a.shape[2:])
        patterns = flat(tset.patterns)
        akey, seed = _assignment_key(tset.assignment), scheme.codebook_seed
        q, dist = np.empty((len(bits),) + patterns.shape, complex), np.empty((len(bits), n))
        emulated = []  # (entry, user)
        for entry, counts in enumerate(bits):
            for user, b in enumerate(counts):
                if b > EXPLICIT_BIT_LIMIT:
                    emulated.append((entry, user))
                    continue
                key = (akey, seed, user, b)
                q[entry, user], dist[entry, user] = self._once("search", key, lambda: fb.quantize(
                    patterns[user], _cached_codebook(N_U, d_s, b, user, seed)))[1:]
        if emulated:
            frame = self._once("frame", (akey, seed), lambda: fb.GeodesicFrame(
                patterns, flat(self.leakage(cfg, tset)[1]),
                [np.random.default_rng([seed, 211, self.trial_index, u]) for u in range(n)]))
            row = {}  # each (user, bit count) once, in first-seen order
            at = [row.setdefault((u, bits[e][u]), len(row)) for e, u in emulated]
            V_hat, d = fb.model_quantize(frame, *(list(axis) for axis in zip(*row)))
            entries, users = (list(axis) for axis in zip(*emulated))
            q[entries, users], dist[entries, users] = V_hat[at], np.array(d)[at]
        return q.reshape(-1, K, L, N_U, d_s).swapaxes(1, 2), dist.reshape(-1, K, L).swapaxes(1, 2)

    def feedback(self, cfg: SystemConfig, scheme: SchemeSpec, tset: gia.TransceiverSet) -> tuple:
        """The power-free part of the limited-feedback stage of ``scheme``'s plan
        group: its (bit allocation, budget) entries, in plan order and then the
        scheme's own if the plan lacks it, with their (entries, L, K) squared
        quantization distances and (entries, L, K, L, K, d_s, d_s) ``link_images``
        of the quantized patterns through their decoders.

        Formed once per (assignment, entries, codebook seed) from entries formed once
        per (assignment, codebook seed), whichever group asks first: per chunk of new
        entries (SCREEN_CHUNK_BYTES of decoder SVDs) one ``quantized`` pass, one stacked
        ``quantized_decoder`` and one ``link_images`` stack."""
        if cfg.N_U <= cfg.d_s:
            raise ContractViolation(
                "limited feedback needs N_U > d_s: with square patterns there is "
                "nothing to quantize"
            )
        group = self._plan.entries.get((scheme.assignment, scheme.proposer, scheme.codebook_seed))
        entries = tuple(dict.fromkeys([*(group or ()), (scheme.bit_alloc, scheme.bits_budget)]))
        akey, seed = _assignment_key(tset.assignment), scheme.codebook_seed

        def build():
            key = lambda e: ("feedback entry", (akey, e, seed))  # -> its (dist, images)
            new = [e for e in entries if key(e) not in self._pieces]
            lam = self.leakage(cfg, tset)[0].T.ravel()  # users in flat (cell, user) order
            bits = [(fb.dba_allocate(lam, budget, cfg.d_s, cfg.N_U) if rule == "dba"
                     else fb.eba_allocate(budget, cfg.user_count)).tolist()
                    for rule, budget in new]
            chunk = max(1, gia.SCREEN_CHUNK_BYTES // (16 * cfg.user_count * cfg.N_B ** 2))
            for start in range(0, len(new), chunk):
                q, dist = self.quantized(cfg, scheme, tset, bits[start:start + chunk])
                U = fb.quantized_decoder(self.ch, tset.assignment, q, tset.patterns)
                images = gia.link_images(self.ch, U, q)
                self._pieces.update(zip(map(key, new[start:]), zip(dist, images)))
            return (entries, *map(np.array, zip(*(self._pieces[key(e)] for e in entries))))

        return self._once("feedback", (akey, entries, seed), build)

    def feedback_rates(self, cfg: SystemConfig, scheme: SchemeSpec, tset: gia.TransceiverSet):
        """(user rates, per-cell RINR, per-cell bound) of ``scheme``'s feedback entry
        at ``cfg``. A miss evaluates every entry of its ``feedback`` group at every
        planned config, in one call each of ``throughput``, ``rinr`` and
        ``rinr_upper_bound`` over a leading (config, entry) axis."""
        akey, seed = _assignment_key(tset.assignment), scheme.codebook_seed

        def evaluate(configs):
            entries, dist, images = self.feedback(cfg, scheme, tset)
            keys = [("feedback", akey, entry, seed) for entry in entries]
            parts = (throughput(images, configs), fb.rinr(tset.assignment, images, configs),
                     fb.rinr_upper_bound(tset.assignment, configs, dist,
                                         self.leakage(cfg, tset)[0]))
            return [dict(zip(keys, zip(*row))) for row in zip(*parts)]

        key = ("feedback", akey, (scheme.bit_alloc, scheme.bits_budget), seed)
        return self.rates(cfg, key, evaluate)


def _evaluate_trial(build: TrialBuild, cfg: SystemConfig, scheme: SchemeSpec,
                    resamples: int) -> tuple:
    """(sum rate, minimum cell rate, summed RINR, summed RINR bound, resamples) of one
    cell, rates in nats. The rates are Python sums over floats in (cell, user) order;
    the interference and its bound are summed over the cluster, NaN without feedback."""
    rinr = bound = math.nan
    if scheme.assignment == "rb":
        rates = baseline_rb(build, cfg)
    elif scheme.assignment == "fdma":
        rates = baseline_fdma(build, cfg)
    else:
        tset = build.transceivers(cfg, build.assignment(cfg, scheme))
        if scheme.bit_alloc == "none":
            rates = build.user_rates(cfg, tset)
        else:
            rates, rinr_cell, bound_cell = build.feedback_rates(cfg, scheme, tset)
            rinr, bound = sum(rinr_cell.tolist()), sum(bound_cell.tolist())
    cells = rates.T.tolist()
    return sum(r for cell in cells for r in cell), min(map(sum, cells)), rinr, bound, resamples


def _run_cell(
    builds: list,
    cfg: SystemConfig,
    scheme: SchemeSpec,
    trial_index: int,
    seed: int,
    plan: Plan | None = None,
) -> tuple:
    """The ``_evaluate_trial`` summary of one cell of trial ``trial_index``; a
    degenerate draw is resampled once.

    ``builds`` holds the trial's builds by attempt, made with the sweep's
    ``plan``. The resampled draw is made the first time a cell needs it and
    is then shared like the first.
    """
    last = None
    for attempt in range(2):
        if attempt == len(builds):
            builds.append(TrialBuild(cfg, seed, trial_index, attempt, plan))
        try:
            return _evaluate_trial(builds[attempt], cfg, scheme, attempt)
        except DegenerateChannel as exc:
            last = exc
    raise DegenerateChannel(
        f"trial {trial_index} (seed {seed}, scheme {scheme.label}) failed twice: {last}"
    )


def baseline_rb(build: TrialBuild, cfg: SystemConfig) -> np.ndarray:
    """(L, K) user rates of random subspace precoders with matched-filter receivers
    (no alignment), on the images the build keeps (see ``TrialBuild.baseline``),
    every planned config in one ``throughput`` call."""
    images, key = build.baseline(cfg, "rb"), ("baseline", "rb")
    return build.rates(cfg, key, lambda configs: [{key: r} for r in throughput(images, configs)])


def baseline_fdma(build: TrialBuild, cfg: SystemConfig) -> np.ndarray:
    """(L, K) user rates of orthogonal sharing: each user gets 1/(KL) of the band,
    eigen-beamforms its top d_s modes and spends its full power there (noise scales
    with the band fraction, hence the KL power boost). Every planned config in one call."""
    gains, key = build.baseline(cfg, "fdma"), ("baseline", "fdma")

    def evaluate(configs):
        boost = per_config(configs, lambda c: c.user_count * c.P / (c.d_s * c.sigma2), gains.ndim)
        return [{key: r} for r in np.sum(np.log1p(boost * gains), axis=-1) / cfg.user_count]

    return build.rates(cfg, key, evaluate)


@dataclass(frozen=True)
class OverheadReport:
    """Backhaul cost of one scheme, complex coefficients and bits kept apart."""

    scheme: str
    before_cc: int
    assignment_bits: tuple[int, int] | None  # (min, max); equal when exact
    after_cc: int
    after_bits: int


def backhaul_overhead(scheme: str, cfg: SystemConfig, B: int = 0, N_C: int = 1) -> OverheadReport:
    """Closed-form backhaul accounting for a K-cell cluster."""
    K, L, N_U, N_B, d_s = cfg.K, cfg.L, cfg.N_U, cfg.N_B, cfg.d_s
    if scheme == "one_sided":
        bits = 4 * (K + (N_C - 1))
        return OverheadReport(scheme, 0, (bits, bits), K * L * N_U * d_s, (K - 1) * B)
    if scheme == "two_sided":
        return OverheadReport(
            scheme,
            K * (K - 1) * L * N_U * d_s,
            (4 * K, 4 * (K * K - K + 1)),
            0,
            (K - 1) * B,
        )
    if scheme == "centralized":
        before = (K - 1) ** 2 * L * N_U * d_s + (K - 1) * L * N_U * N_B
        return OverheadReport(scheme, before, (0, 0), (K - 1) * L * N_U * d_s, (K - 1) * B)
    if scheme == "fixed":
        return OverheadReport(scheme, 0, None, K * L * N_U * d_s, 0)
    raise ContractViolation(f"no overhead row for scheme {scheme!r}")


def _aggregate(records: np.ndarray) -> list:
    """The CSV columns ``r_sum`` to ``resamples`` of every cell, rates in nats, from
    the (5, cells, trials) ``_evaluate_trial`` summaries of a sweep, each statistic in
    one call over all cells: sample means with standard errors; interference
    reported in dB of the mean sum-cluster level, None without feedback."""
    trials = records.shape[-1]
    if trials == 0:
        raise ContractViolation("cannot aggregate zero trials")
    records = np.ascontiguousarray(records)  # trials last: the per-cell pairwise sums
    means = records[:4].mean(axis=-1).tolist()
    stderrs = (records[:2].std(axis=-1, ddof=1) / math.sqrt(trials) if trials > 1
               else np.zeros(records[:2].shape[:-1])).tolist()
    db = lambda v: None if math.isnan(v) else 10.0 * math.log10(v) if v > 0 else -math.inf
    return [{"r_sum": r_sum, "r_sum_stderr": se_sum, "r_min": r_min, "r_min_stderr": se_min,
             "rinr_db": db(rinr), "bound_db": db(bound), "trials": trials, "resamples": int(n)}
            for r_sum, r_min, rinr, bound, se_sum, se_min, n
            in zip(*means, *stderrs, records[4].sum(axis=-1).tolist())]


@dataclass(frozen=True)
class SweepSpec:
    """Grid definition for one experiment."""

    variable: str               # "snr_db" | "B"
    grid: tuple
    trials: int
    schemes: tuple
    seed: int = 0
    log_base: str = "e"         # rate unit of the CSV: "e" (nats) or "2" (bits)

    def __post_init__(self):
        if self.variable not in ("snr_db", "B"):
            raise ContractViolation(f"unknown sweep variable {self.variable!r}")
        check_whole(self.trials, "trial count")
        check_whole(self.seed, "seed")
        if not isinstance(self.grid, tuple) or not isinstance(self.schemes, tuple):
            raise ContractViolation("the grid and the schemes must be tuples")
        if not all(isinstance(s, SchemeSpec) for s in self.schemes):
            raise ContractViolation(f"schemes must be SchemeSpec records, got {self.schemes!r}")
        if self.seed < 0:
            raise ContractViolation(f"negative seed {self.seed}")
        if not self.grid or not self.schemes or self.trials < 1:
            raise ContractViolation("sweep needs at least one grid value, scheme and trial")
        if self.variable == "B" and any(s.bit_alloc == "none" for s in self.schemes):
            raise ContractViolation("a bit-budget sweep needs schemes with dba or eba allocation")
        if self.variable == "B" and not all(
            isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
            and float(v).is_integer()
            for v in self.grid
        ):
            raise ContractViolation(f"bit budgets must be whole numbers, got {self.grid}")
        for value in self.grid:
            check_real(value, "grid value")
        log_scale(self.log_base)


def log_scale(log_base) -> float:
    """Multiplier converting nats to the requested rate unit."""
    if log_base in ("e", None):
        return 1.0
    if log_base in (2, "2"):
        return 1.0 / math.log(2.0)
    raise ContractViolation(f"unsupported log base {log_base!r}")


def run_sweep(spec: SweepSpec, cfg: SystemConfig, out_path: str | None = None) -> list:
    """Evaluate every (grid point, scheme) cell and return CSV-shaped rows,
    rates converted from nats to ``spec.log_base``.

    Trials run one after another; each trial's channel draw and power-free
    work is built once and shared by all of its cells (see ``TrialBuild``), and
    every cell is aggregated in one stacked call once all trials ran. Rows
    come out grid-major, in the order of ``spec.grid`` then ``spec.schemes``.
    """
    unit = log_scale(spec.log_base)
    require_feasible(cfg)
    require_draw_fits(cfg)
    cells = [  # one config object per grid point, shared by its schemes
        (value, point_cfg,
         replace(scheme, bits_budget=int(value)) if spec.variable == "B" else scheme)
        for value in spec.grid
        for point_cfg in [cfg.at_snr_db(value) if spec.variable == "snr_db" else cfg]
        for scheme in spec.schemes
    ]
    plan = Plan(tuple(dict.fromkeys(c for _, c, _ in cells)))  # what cells ask of each draw
    for _, _, s in cells:
        entries = plan.entries.setdefault((s.assignment, s.proposer, s.codebook_seed), {})
        if s.bit_alloc != "none":
            entries[s.bit_alloc, s.bits_budget] = None
    summaries = []  # trial-major, then cell
    for t in range(spec.trials):
        builds = []  # this trial's builds by attempt; dropped after the trial
        for _, point_cfg, point_scheme in cells:
            summaries.append(_run_cell(builds, point_cfg, point_scheme, t, spec.seed, plan))
    records = np.reshape(summaries, (spec.trials, len(cells), 5)).T  # (field, cell, trial)
    rows = []
    for (value, _, point_scheme), aggregate in zip(cells, _aggregate(records)):
        row = {"variable": spec.variable, "value": value, "scheme": point_scheme.label}
        row.update(aggregate)
        for column in ("r_sum", "r_sum_stderr", "r_min", "r_min_stderr"):
            row[column] *= unit
        rows.append(row)
    if out_path is not None:
        write_csv(rows, out_path)
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def write_csv(rows, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for row in rows:
                writer.writerow([_fmt(row[c]) for c in CSV_COLUMNS])
    except OSError as exc:
        raise ContractViolation(f"cannot write results to {path}: {exc}") from exc
