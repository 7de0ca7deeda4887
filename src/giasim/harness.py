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
from .linalg import complex_gaussian, left_null_space, orthonormalize, psd_eigvals
from .system import SystemConfig, draw_channels, require_feasible, trial_rng

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
        if self.bits_budget < 0:
            raise ContractViolation(f"negative bit budget {self.bits_budget}")
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


@dataclass
class TrialResult:
    """Everything measured on one channel realization."""

    scheme: str
    trial_index: int
    user_rates: dict
    cell_rates: dict
    sum_rate: float
    min_cell_rate: float
    assignment: asg.Assignment | None = None
    rinr_per_cell: dict | None = None
    bound_per_cell: dict | None = None
    bits: np.ndarray | None = None
    stability: dict = field(default_factory=dict)
    resamples: int = 0


def throughput(images: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Rate of every user in nats, as an (L, K) array, treating residual
    interference as noise.

    Every transmitter's image through a user's decoder gives one
    noise-normalized covariance: A, the desired signal's, and C, the sum of
    all the others in cell-major order (the user's own term masked to zero).
    Evaluated as logdet(I + C + A) - logdet(I + C); both arguments are
    Hermitian positive definite, which keeps the evaluation stable. With
    perfect feedback C vanishes on the desired links and this reduces to the
    alignment rate. ``images`` is the ``link_images`` stack of the decoders
    and the transmit patterns.
    """
    L, K = cfg.L, cfg.K
    cov = (cfg.P / (cfg.d_s * cfg.sigma2)) * (images @ images.conj().swapaxes(-1, -2))
    own = np.eye(L * K, dtype=bool).reshape(L, K, L, K, 1, 1)
    others = np.where(own, 0.0, cov)
    C = sum(others[:, :, j, l] for l in range(K) for j in range(L))
    A = np.einsum("ikikab->ikab", cov)
    eye = np.eye(cfg.d_s)
    full = np.sum(np.log(psd_eigvals(eye + C + A)), axis=-1)
    return full - np.sum(np.log(psd_eigvals(eye + C)), axis=-1)


@lru_cache(maxsize=128)
def _cached_codebook(M: int, N: int, B: int, user_key: int, seed: int) -> fb.Codebook:
    rng = np.random.default_rng([seed, 101, user_key, B])
    return fb.generate_codebook(M, N, B, rng)


def _assignment_key(assignment: asg.Assignment) -> tuple:
    return tuple(sorted(assignment.provider_of.items()))


@dataclass(frozen=True)
class Feedback:
    """What limited feedback fixes for one assignment, before P enters."""

    alloc: fb.BitAllocation
    dist: np.ndarray         # (L, K) squared chordal quantization distances
    images: np.ndarray       # (L, K, L, K, d_s, d_s) link_images of the quantized patterns


class TrialBuild:
    """The power-free work on one channel draw, computed once and shared by
    every cell (grid point and scheme) of a trial.

    Each piece is computed by the same call on the same operands as a
    from-scratch evaluation would use, so sharing it changes no bit of any
    result. Of what it keeps, the receiver side of the preferences and the
    assignments that read it depend on P; they are kept per configuration.
    ``plan`` maps each (assignment rule, proposer, codebook seed) of the sweep
    to the (bit allocation, budget) entries its cells feed back, in order.
    """

    def __init__(self, cfg: SystemConfig, seed: int, trial_index: int, attempt: int,
                 plan: dict | None = None):
        rng = trial_rng(seed, trial_index, stream=attempt)
        self.trial_index = trial_index
        self.ch = draw_channels(cfg, rng)
        self._rng_after_draw = rng  # the rb baseline continues a copy of this stream
        self._plan = plan or {}
        # a matching or centralized rule reads every pair: form them all at the first request
        self._all_pairs = any(rule not in ("fixed", "rb", "fdma") for rule, _, _ in self._plan)
        self._potentials = gia.Potentials(self.ch, cfg)
        self._provider_side = None
        self._two_sided = {}        # config -> profile with both sides
        self._choices = {}          # (rule[, config, proposer]) -> (assignment, stability verdicts)
        self._tsets = {}            # assignment key -> TransceiverSet
        self._leakage = {}          # assignment key -> (L, K) lambda1, patterns' null bases
        self._frames = {}           # (assignment key, codebook seed) -> GeodesicFrame
        self._feedback = {}         # (assignment key, allocation, budget, seed) -> Feedback
        self._baselines = {}        # baseline name -> its power-free part

    def potentials(self, cfg: SystemConfig, pairs=None) -> gia.Potentials:
        """The pair pieces, formed at least for ``pairs`` (all if None, or if the
        plan holds a rule that reads every pair)."""
        if pairs is None or self._all_pairs:
            pairs = gia.cell_pairs(cfg.K)
        missing = [pr for pr in pairs if pr not in self._potentials]
        if missing:
            self._potentials.update(gia.build_potentials(self.ch, cfg, missing))
        return self._potentials

    def preferences(self, cfg: SystemConfig, two_sided: bool) -> asg.PreferenceProfile:
        """The provider side, plus the receiver side for ``cfg`` when two-sided."""
        if self._provider_side is None:
            self._provider_side = asg.build_preferences(self.ch, cfg, self.potentials(cfg))
        if not two_sided:
            return self._provider_side
        prefs = self._two_sided.get(cfg)
        if prefs is None:
            prefs = self._two_sided[cfg] = asg.build_preferences(
                self.ch, cfg, self.potentials(cfg), two_sided=True,
                provider_side=self._provider_side,
            )
        return prefs

    def baseline(self, cfg: SystemConfig, name: str) -> np.ndarray:
        """The power-free part of baseline ``name``, formed once per draw. rb: the
        ``link_images`` of random patterns, drawn in flat (cell, user) order from
        the stream after the channel draw, through matched-filter decoders. fdma:
        the top d_s eigenvalues of every user's direct-channel Gram, (L, K, d_s)."""
        if name not in self._baselines:
            if name == "rb":
                rng = copy.deepcopy(self._rng_after_draw)
                draws = [complex_gaussian(rng, (cfg.N_U, cfg.d_s)) for _ in range(cfg.user_count)]
                patterns = orthonormalize(np.array(draws).reshape(
                    cfg.K, cfg.L, cfg.N_U, cfg.d_s).swapaxes(0, 1))
                decoders = orthonormalize(gia.direct_channels(self.ch) @ patterns)
                self._baselines[name] = gia.link_images(self.ch, decoders, patterns)
            else:
                direct = gia.direct_channels(self.ch)
                gains = psd_eigvals(direct.conj().swapaxes(-1, -2) @ direct)
                self._baselines[name] = gains[..., ::-1][..., : cfg.d_s]
        return self._baselines[name]

    def assignment(self, cfg: SystemConfig, scheme: SchemeSpec) -> tuple:
        """(strict assignment, stability verdicts) of ``scheme``'s rule, chosen once
        per key: the rule alone for ``fixed`` and ``one_sided``, whose provider
        side does not depend on P, else the rule, the config and the proposer."""
        rule = scheme.assignment
        key = (rule,) if rule in ("fixed", "one_sided") else (rule, cfg, scheme.proposer)
        if key not in self._choices:
            stability = {}
            if rule == "fixed":
                chosen = asg.fixed_cyclic(cfg.K)
            elif rule == "one_sided":
                prefs = self.preferences(cfg, two_sided=False)
                weak, _ = asg.fca_match(prefs)
                if cfg.K <= 6:
                    stability["one_sided"] = asg.is_stable(weak, prefs, "one_sided")
                chosen = asg.breaking_step(weak, prefs)
            elif rule == "two_sided":
                prefs = self.preferences(cfg, two_sided=True)
                matched, _ = asg.gale_shapley(prefs, scheme.proposer)
                if matched.lone is None:
                    stability["two_sided"] = asg.is_stable(matched, prefs, "two_sided")
                chosen = asg.breaking_step(matched, prefs)
            else:
                objective = "sum_rate" if rule.endswith("_sum") else "min_cell_rate"
                sense = "worst" if rule.startswith("worst") else "best"
                chosen, _ = asg.centralized_search(
                    self.ch, cfg, objective=objective, sense=sense, potentials=self.potentials(cfg))
            self._choices[key] = chosen, stability
        chosen, stability = self._choices[key]
        return chosen, dict(stability)

    def transceivers(self, cfg: SystemConfig, chosen: asg.Assignment) -> gia.TransceiverSet:
        key = _assignment_key(chosen)
        tset = self._tsets.get(key)
        if tset is None:
            potentials = self.potentials(cfg, [(p, r) for r, p in key])
            tset = self._tsets[key] = gia.build_transceivers(self.ch, cfg, chosen, potentials)
        return tset

    def leakage(self, cfg: SystemConfig, tset: gia.TransceiverSet) -> tuple:
        """Largest leakage eigenvalue of every user, as an (L, K) array, and the
        left null bases of the patterns, (L, K, N_U, N_U - d_s), both stacked."""
        key = _assignment_key(tset.assignment)
        if key not in self._leakage:
            receivers = [r for _, r in sorted(tset.assignment.receivers().items())]
            null_bases = np.reshape(left_null_space(tset.patterns), (cfg.L, cfg.K, cfg.N_U, -1))
            _, lam = fb.omega_matrix(
                self.ch.H[:, range(cfg.K), receivers], tset.patterns, null_bases)
            self._leakage[key] = lam, null_bases
        return self._leakage[key]

    def quantized(self, cfg: SystemConfig, scheme: SchemeSpec, tset: gia.TransceiverSet,
                  bits: list) -> tuple[np.ndarray, np.ndarray]:
        """Every pattern quantized at its count in each row of ``bits`` (one per
        entry, users in flat (cell, user) order): the (entries, L, K, N_U, d_s)
        quantized patterns and the (entries, L, K) squared chordal distances.
        Explicit codebook search up to the limit, one per entry and user, on
        codebooks fixed per (user, bit count) across trials, as offline books
        would be; above it, every such entry and user emulated in one call on
        the frame of the assignment and codebook seed, formed on first use from
        each user's stream [codebook_seed, 211, trial, user]."""
        L, K, N_U, d_s, n = cfg.L, cfg.K, cfg.N_U, cfg.d_s, cfg.user_count
        flat = lambda a: a.swapaxes(0, 1).reshape((n,) + a.shape[2:])
        patterns = flat(tset.patterns)
        q, dist = np.empty((len(bits),) + patterns.shape, complex), np.empty((len(bits), n))
        emulated = []  # (entry, user)
        for entry, counts in enumerate(bits):
            for user, b in enumerate(counts):
                if b <= EXPLICIT_BIT_LIMIT:
                    cb = _cached_codebook(N_U, d_s, b, user, scheme.codebook_seed)
                    _, q[entry, user], dist[entry, user] = fb.quantize(patterns[user], cb)
                else:
                    emulated.append((entry, user))
        if emulated:
            key = (_assignment_key(tset.assignment), scheme.codebook_seed)
            if key not in self._frames:
                streams = [np.random.default_rng([scheme.codebook_seed, 211, self.trial_index, u])
                           for u in range(n)]
                self._frames[key] = fb.GeodesicFrame(
                    patterns, flat(self.leakage(cfg, tset)[1]), streams)
            entries, users = (list(axis) for axis in zip(*emulated))
            q[entries, users], dist[entries, users] = fb.model_quantize(
                self._frames[key], users, [bits[e][u] for e, u in emulated])
        return q.reshape(-1, K, L, N_U, d_s).swapaxes(1, 2), dist.reshape(-1, K, L).swapaxes(1, 2)

    def feedback(
        self, cfg: SystemConfig, scheme: SchemeSpec, tset: gia.TransceiverSet
    ) -> Feedback:
        """The power-free part of the limited-feedback stage for ``scheme``.

        A miss forms it together with every other (allocation, budget) entry
        that the plan lists for the scheme's rule, proposer and codebook seed
        and that this assignment lacks: the bit splits, then per chunk of
        entries (SCREEN_CHUNK_BYTES of decoder SVDs) one ``quantized`` pass,
        one stacked ``quantized_decoder`` and one ``link_images`` stack."""
        akey, seed = _assignment_key(tset.assignment), scheme.codebook_seed
        entry = (scheme.bit_alloc, scheme.bits_budget)
        if (akey, *entry, seed) not in self._feedback:
            group = self._plan.get((scheme.assignment, scheme.proposer, seed), ())
            entries = [e for e in dict.fromkeys([entry, *group])
                       if (akey, *e, seed) not in self._feedback]
            # flat (cell, user) order, as cfg.user_index numbers the users
            lam = self.leakage(cfg, tset)[0].T.ravel()
            allocs = [fb.dba_allocate(lam, budget, cfg.d_s, cfg.N_U) if rule == "dba"
                      else fb.eba_allocate(budget, cfg.user_count) for rule, budget in entries]
            chunk = max(1, asg.SCREEN_CHUNK_BYTES // (16 * cfg.user_count * cfg.N_B ** 2))
            for start in range(0, len(entries), chunk):
                part = allocs[start:start + chunk]
                q, dist = self.quantized(cfg, scheme, tset, [a.bits.tolist() for a in part])
                U = fb.quantized_decoder(self.ch, tset.assignment, q, tset.patterns, cfg.d_s)
                images = gia.link_images(self.ch, U, q)
                for e, alloc, d, im in zip(entries[start:], part, dist, images):
                    self._feedback[(akey, *e, seed)] = Feedback(alloc, d, im)
        return self._feedback[(akey, *entry, seed)]


def _evaluate_trial(
    build: TrialBuild,
    cfg: SystemConfig,
    scheme: SchemeSpec,
    trial_index: int,
    resamples: int,
) -> TrialResult:
    if scheme.assignment == "rb":
        result = baseline_rb(build, cfg)
    elif scheme.assignment == "fdma":
        result = baseline_fdma(build, cfg)
    else:
        chosen, stability = build.assignment(cfg, scheme)
        tset = build.transceivers(cfg, chosen)
        if scheme.bit_alloc == "none":
            rates = gia.user_rate(build.ch, tset, cfg)
            result = _pack_result(scheme, trial_index, rates, cfg, chosen)
        else:
            result = _limited_feedback_stage(build, cfg, scheme, trial_index, tset)
        result.stability = stability
    result.resamples = resamples
    result.trial_index = trial_index
    return result


def _limited_feedback_stage(
    build: TrialBuild,
    cfg: SystemConfig,
    scheme: SchemeSpec,
    trial_index: int,
    tset: gia.TransceiverSet,
) -> TrialResult:
    if cfg.N_U <= cfg.d_s:
        raise ContractViolation(
            "limited feedback needs N_U > d_s: with square patterns there is "
            "nothing to quantize"
        )
    chosen = tset.assignment
    fed = build.feedback(cfg, scheme, tset)
    rates = throughput(fed.images, cfg)
    rinr_cell = fb.rinr(chosen, fed.images, cfg)
    bound_cell = fb.rinr_upper_bound(chosen, cfg, fed.dist, build.leakage(cfg, tset)[0])
    result = _pack_result(scheme, trial_index, rates, cfg, chosen)
    result.rinr_per_cell = rinr_cell
    result.bound_per_cell = bound_cell
    result.bits = fed.alloc.bits
    return result


def _pack_result(scheme, trial_index, rates, cfg, chosen=None) -> TrialResult:
    """The trial record of the (L, K) user rates ``rates``; cell and sum rates
    are Python sums over floats in (cell, user) order."""
    rows = rates.tolist()
    user_rates = {(i, k): rows[i][k] for k in range(cfg.K) for i in range(cfg.L)}
    cell_rates = {
        k: sum(user_rates[(i, k)] for i in range(cfg.L)) for k in range(cfg.K)
    }
    return TrialResult(
        scheme=scheme.label,
        trial_index=trial_index,
        user_rates=user_rates,
        cell_rates=cell_rates,
        sum_rate=sum(user_rates.values()),
        min_cell_rate=min(cell_rates.values()),
        assignment=chosen,
    )


def _run_cell(
    builds: list,
    cfg: SystemConfig,
    scheme: SchemeSpec,
    trial_index: int,
    seed: int,
    plan: dict | None = None,
) -> TrialResult:
    """One cell of trial ``trial_index``; a degenerate draw is resampled once.

    ``builds`` holds the trial's builds by attempt, made with the sweep's
    ``plan``. The resampled draw is made the first time a cell needs it and
    is then shared like the first.
    """
    last = None
    for attempt in range(2):
        if attempt == len(builds):
            builds.append(TrialBuild(cfg, seed, trial_index, attempt, plan))
        try:
            return _evaluate_trial(builds[attempt], cfg, scheme, trial_index, attempt)
        except DegenerateChannel as exc:
            last = exc
    raise DegenerateChannel(
        f"trial {trial_index} (seed {seed}, scheme {scheme.label}) failed twice: {last}"
    )


def baseline_rb(build: TrialBuild, cfg: SystemConfig) -> TrialResult:
    """Random subspace precoders with matched-filter receivers (no alignment),
    on the images the build keeps (see ``TrialBuild.baseline``)."""
    rates = throughput(build.baseline(cfg, "rb"), cfg)
    return _pack_result(SchemeSpec(assignment="rb"), 0, rates, cfg)


def baseline_fdma(build: TrialBuild, cfg: SystemConfig) -> TrialResult:
    """Orthogonal sharing: each user gets 1/(KL) of the band, eigen-beamforms
    its top d_s modes and spends its full power there (noise scales with the
    band fraction, hence the KL power boost)."""
    n_share = cfg.user_count
    boost = n_share * cfg.P / (cfg.d_s * cfg.sigma2)
    rates = np.sum(np.log1p(boost * build.baseline(cfg, "fdma")), axis=-1) / n_share
    return _pack_result(SchemeSpec(assignment="fdma"), 0, rates, cfg)


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


def _mean_stderr(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, 0.0
    return mean, float(arr.std(ddof=1) / math.sqrt(arr.size))


def _summary(result: TrialResult) -> tuple:
    """The fields of a trial that aggregation reads; the interference and its
    bound are summed over the cluster, or None without limited feedback."""
    rinr = bound = None
    if result.rinr_per_cell is not None:
        rinr = sum(result.rinr_per_cell.values())
        bound = sum(result.bound_per_cell.values())
    return result.sum_rate, result.min_cell_rate, rinr, bound, result.resamples


def _aggregate(summaries: list) -> dict:
    """The CSV columns ``r_sum`` to ``resamples``, rates in nats: sample means
    with standard errors; interference reported in dB of the mean
    sum-cluster level."""
    if not summaries:
        raise ContractViolation("cannot aggregate zero trials")
    sum_rates, min_rates, rinrs, bounds, resamples = zip(*summaries)
    r_sum, se_sum = _mean_stderr(sum_rates)
    r_min, se_min = _mean_stderr(min_rates)
    rinr_db = bound_db = None
    if all(v is not None for v in rinrs):
        mean_rinr = float(np.mean(rinrs))
        rinr_db = 10.0 * math.log10(mean_rinr) if mean_rinr > 0 else -math.inf
        mean_bound = float(np.mean(bounds))
        bound_db = 10.0 * math.log10(mean_bound) if mean_bound > 0 else -math.inf
    return {
        "r_sum": r_sum,
        "r_sum_stderr": se_sum,
        "r_min": r_min,
        "r_min_stderr": se_min,
        "rinr_db": rinr_db,
        "bound_db": bound_db,
        "trials": len(summaries),
        "resamples": sum(resamples),
    }


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
        if self.seed < 0:
            raise ContractViolation(f"negative seed {self.seed}")
        if not self.grid or not self.schemes or self.trials < 1:
            raise ContractViolation("sweep needs at least one grid value, scheme and trial")
        if self.variable == "B" and any(s.bit_alloc == "none" for s in self.schemes):
            raise ContractViolation("a bit-budget sweep needs schemes with dba or eba allocation")
        if self.variable == "B" and not all(
            not isinstance(v, bool) and float(v).is_integer() for v in self.grid
        ):
            raise ContractViolation(f"bit budgets must be whole numbers, got {self.grid}")
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
    work is built once and shared by all of its cells (see ``TrialBuild``).
    Rows come out grid-major, in the order of ``spec.grid`` then
    ``spec.schemes``.
    """
    unit = log_scale(spec.log_base)
    require_feasible(cfg)
    cells = [
        (
            value,
            cfg.at_snr_db(value) if spec.variable == "snr_db" else cfg,
            replace(scheme, bits_budget=int(value)) if spec.variable == "B" else scheme,
        )
        for value in spec.grid
        for scheme in spec.schemes
    ]
    plan = {}  # what the cells will ask of each draw (see TrialBuild)
    for _, _, s in cells:
        entries = plan.setdefault((s.assignment, s.proposer, s.codebook_seed), {})
        if s.bit_alloc != "none":
            entries[s.bit_alloc, s.bits_budget] = None
    summaries = [[] for _ in cells]
    for t in range(spec.trials):
        builds = []  # this trial's builds by attempt; dropped after the trial
        for (_, point_cfg, point_scheme), cell in zip(cells, summaries):
            cell.append(_summary(_run_cell(builds, point_cfg, point_scheme, t, spec.seed, plan)))
    rows = []
    for (value, _, point_scheme), cell in zip(cells, summaries):
        row = {"variable": spec.variable, "value": value, "scheme": point_scheme.label}
        row.update(_aggregate(cell))
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
