"""Monte-Carlo experiment driver.

Runs seeded trials end to end (channel draw, assignment, transceivers,
optional quantized feedback, rates and residual interference), aggregates
them over sweep grids and emits deterministic CSV. Two non-alignment
baselines are included for comparison curves, plus the closed-form backhaul
overhead accounting per assignment scheme.
"""

from __future__ import annotations

import csv
import math
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from . import assignment as asg
from . import feedback as fb
from . import gia
from .errors import ContractViolation, DegenerateChannel
from .linalg import orthonormalize, psd_eigvals
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
# codewords kept across trials, in bytes: room for every explicit book of a K = 6,
# N_U = 12, d_s = 2 bit sweep (36 MB)
CODEBOOK_CACHE_BYTES = 2 ** 26

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


_codebooks = OrderedDict()  # (M, N, B, user key, seed) -> book, least recently used first


def _cached_codebook(M: int, N: int, B: int, user_key: int, seed: int) -> fb.Codebook:
    """The book of one (user, bit count) and codebook seed, kept across trials while
    the kept books' codewords fit in CODEBOOK_CACHE_BYTES, least recently used out
    first; a book is a function of its key, so one generated again has the same bits."""
    key = (M, N, B, user_key, seed)
    if key in _codebooks:
        _codebooks.move_to_end(key)
        return _codebooks[key]
    book = fb.generate_codebook(M, N, B, np.random.default_rng([seed, 101, user_key, B]))
    if book.words_h.nbytes <= CODEBOOK_CACHE_BYTES:  # a book over the bound alone is not kept
        _codebooks[key] = book
        held = sum(kept.words_h.nbytes for kept in _codebooks.values())
        while held > CODEBOOK_CACHE_BYTES:
            held -= _codebooks.popitem(last=False)[1].words_h.nbytes
    return book


class TrialBuild:
    """The power-free work on one channel draw, computed once and shared by
    every cell (grid point and scheme) of a trial.

    Each piece is computed by the same call on the same operands as a
    from-scratch evaluation would use, so sharing it changes no bit of any
    result. One memo, entered only through ``_each``, holds every piece by stage
    and a key that names exactly what it depends on. The power-free pieces read
    the build's own dimensions, ``cfg``, which every cell shares. A value that
    depends on P is kept by ``rates`` under its kind's stage: evaluated at once at
    every config of the ``cells``, the sweep's (config, scheme) pairs."""

    def __init__(self, cfg: SystemConfig, seed: int, trial_index: int, attempt: int, cells):
        rng = trial_rng(seed, trial_index, stream=attempt)
        self.cfg, self.trial_index = cfg, trial_index
        self.ch = draw_channels(cfg, rng)
        self._rng_after_draw = rng  # the rb baseline continues this stream, once per draw
        self._position = {c: i for i, c in enumerate(dict.fromkeys(c for c, _ in cells))}
        # the pairs the rules read: every pair if one matches or searches, else fixed's ring
        self._pairs = gia.cell_pairs(cfg.K) if any(s.assignment not in ("fixed", "rb", "fdma")
            for _, s in cells) else gia.assignment_pairs(asg.fixed_cyclic(cfg.K))
        groups, self._entries = {}, {}  # a feedback scheme -> its group's entries, its position
        for _, s in cells:
            if s.bit_alloc != "none":  # a group: {(bit allocation, budget): position}
                group = groups.setdefault((s.assignment, s.proposer, s.codebook_seed), {})
                self._entries[s] = group, group.setdefault((s.bit_alloc, s.bits_budget), len(group))
        self._entries = {s: (tuple(group), at) for s, (group, at) in self._entries.items()}
        self._pieces = {}  # (stage, key) -> piece

    def _each(self, stage: str, keys, build) -> list:
        """Pieces ``stage`` of ``keys``: ``build(missing)`` returns those of the keys not
        yet kept, in first-seen order, in one call; nothing is kept if it raises."""
        pieces = self._pieces
        try:  # a hit, the common case, looks each key up once
            return [pieces[stage, key] for key in keys]
        except KeyError:
            missing = list(dict.fromkeys(key for key in keys if (stage, key) not in pieces))
        pieces.update(zip([(stage, key) for key in missing], build(missing), strict=True))
        return [pieces[stage, key] for key in keys]

    def _once(self, stage: str, key, build):
        """Piece ``stage`` of ``key``, ``build()`` on the first request."""
        return self._each(stage, (key,), lambda missing: [build()])[0]

    def rates(self, cfg: SystemConfig, stage: str, key, evaluate):
        """The value ``stage`` of ``key`` at ``cfg``: the first request calls
        ``evaluate(configs)`` once at every planned config, in grid order, which gives
        one value per config. :class:`ContractViolation` if ``cfg`` is not a config
        of the build's cells."""
        position = self._position.get(cfg)
        if position is None:
            raise ContractViolation(f"config {cfg} is not among the cells of the trial's build")
        return self._once(stage, key, lambda: evaluate(tuple(self._position)))[position]

    def potentials(self) -> gia.Potentials:
        """The pieces of every pair the cells' rules read, formed at once."""
        return self._once("potentials", None, lambda: gia.build_potentials(
            self.ch, self.cfg, self._pairs))

    def provider_side(self) -> asg.PreferenceProfile:
        """The one-sided profile, which does not depend on P: once per draw."""
        return self._once("provider side", None, lambda: asg.build_preferences(
            self.ch, self.cfg, self.potentials()))

    def assignment(self, cfg: SystemConfig, scheme: SchemeSpec) -> asg.Assignment:
        """The strict assignment of ``scheme``'s rule, chosen at the config of the cell
        that asks for it and kept per (rule, proposer if the rule reads it, config if
        it reads P): ``fixed`` and ``one_sided`` once per draw; a matching or search
        error stays with its grid point's cell."""
        rule = scheme.assignment
        key = (rule, scheme.proposer if rule == "two_sided" else None,
               None if rule in ("fixed", "one_sided") else cfg)
        return self._once("assignment", key, lambda: self._choose(cfg, scheme))

    def _choose(self, cfg: SystemConfig, scheme: SchemeSpec) -> asg.Assignment:
        rule = scheme.assignment
        if rule == "fixed":
            return asg.fixed_cyclic(cfg.K)
        if rule == "one_sided":
            prefs = self.provider_side()
            weak, _ = asg.fca_match(prefs)
            if cfg.K <= 6:  # unread: the traced benchmark counts these verdicts
                asg.is_stable(weak, prefs, "one_sided")
            return asg.breaking_step(weak, prefs)
        if rule == "two_sided":  # the receiver sides of every planned config in one call
            prefs = self.rates(cfg, "receiver side", None, lambda configs: asg.build_preferences(
                self.ch, configs, self.potentials(), self.provider_side()))
            matched, _ = asg.gale_shapley(prefs, scheme.proposer)
            if matched.lone is None:  # unread: the traced benchmark counts these verdicts
                asg.is_stable(matched, prefs, "two_sided")
            return asg.breaking_step(matched, prefs)
        objective = "sum_rate" if rule.endswith("_sum") else "min_cell_rate"
        sense = "worst" if rule.startswith("worst") else "best"
        screen = lambda: self._once(  # every strict assignment, once per draw
            "screen", None, lambda: self.potentials().inverse_gains())
        return asg.centralized_search(
            cfg, screen, lambda a: self.user_rates(cfg, self.transceivers(a)), objective, sense)[0]

    def user_rates(self, cfg: SystemConfig, tset: gia.TransceiverSet) -> np.ndarray:
        """``gia.user_rate`` of ``tset`` at ``cfg``, evaluated at every planned config
        in one call."""
        return self.rates(cfg, "user rates", tset.assignment.providers,
                          lambda configs: gia.user_rate(self.ch, tset, configs))

    def transceivers(self, chosen: asg.Assignment) -> gia.TransceiverSet:
        return self._once("transceivers", chosen.providers, lambda: gia.build_transceivers(
            self.ch, self.cfg, chosen, self.potentials()))

    def leakage(self, tset: gia.TransceiverSet) -> tuple:
        """Largest leakage eigenvalue of every user, as an (L, K) array, and the
        left null bases of the patterns, (L, K, N_U, N_U - d_s), both stacked."""
        def build():
            cfg, receivers = self.cfg, np.argsort(tset.assignment.providers)  # provider order
            null_bases = gia.select_null_basis(tset.patterns, cfg.N_U - cfg.d_s)
            lam = fb.omega_matrix(self.ch.H[:, range(cfg.K), receivers], tset.patterns, null_bases)
            return lam, null_bases

        return self._once("leakage", tset.assignment.providers, build)

    def quantized(self, scheme: SchemeSpec, tset: gia.TransceiverSet,
                  bits: list) -> tuple[np.ndarray, np.ndarray]:
        """Every pattern quantized at its count in each row of ``bits`` (one per
        entry, users in flat (cell, user) order): the (entries, L, K, N_U, d_s)
        quantized patterns and the (entries, L, K) squared chordal distances.
        Explicit codebook search up to the limit, on codebooks fixed per (user, bit
        count) across trials, as offline books would be; above it, emulation on the
        frame of the assignment and codebook seed, formed on first use from each
        user's stream [codebook_seed, 211, trial, user], every new (user, bit count)
        of the call in one ``model_quantize``. Each (user, bit count) is quantized
        once per (assignment, codebook seed), whichever entries, chunks or groups
        share it."""
        cfg = self.cfg
        L, K, N_U, d_s, n = cfg.L, cfg.K, cfg.N_U, cfg.d_s, cfg.user_count
        flat = lambda a: a.swapaxes(0, 1).reshape((n,) + a.shape[2:])
        patterns = flat(tset.patterns)
        akey, seed = tset.assignment.providers, scheme.codebook_seed
        keys = [(akey, seed, user, b) for counts in bits for user, b in enumerate(counts)]

        def build(missing):  # the explicit searches in order, then one model_quantize
            pieces = {(a, s, u, b): fb.quantize(patterns[u], _cached_codebook(
                N_U, d_s, b, u, seed))[1:] for a, s, u, b in missing if b <= EXPLICIT_BIT_LIMIT}
            emulated = [key for key in missing if key[3] > EXPLICIT_BIT_LIMIT]
            if emulated:
                frame = self._once("frame", (akey, seed), lambda: fb.GeodesicFrame(
                    patterns, flat(self.leakage(tset)[1]),
                    [np.random.default_rng([seed, 211, self.trial_index, u]) for u in range(n)]))
                _, _, users, counts = zip(*emulated)
                V_hat, dist = fb.model_quantize(frame, list(users), list(counts))
                pieces.update(zip(emulated, zip(V_hat, dist)))
            return [pieces[key] for key in missing]

        q, dist = (np.array(a) for a in zip(*self._each("quantized", keys, build)))
        return q.reshape(-1, K, L, N_U, d_s).swapaxes(1, 2), dist.reshape(-1, K, L).swapaxes(1, 2)

    def feedback(self, scheme: SchemeSpec, tset: gia.TransceiverSet) -> tuple:
        """The power-free part of the limited-feedback stage of ``scheme``'s feedback
        group, over its (bit allocation, budget) entries in the order of the build's
        cells: the (entries, L, K) squared quantization distances and the (entries, L,
        K, L, K, d_s, d_s) ``link_images`` of the quantized patterns through their
        decoders. Per chunk of entries (SCREEN_CHUNK_BYTES of decoder SVDs) one
        ``quantized`` call, one stacked ``quantized_decoder``, one ``link_images``
        stack. Kept by no memo: its one reader, ``feedback_rates``, keeps the rates."""
        cfg = self.cfg
        if cfg.N_U <= cfg.d_s:
            raise ContractViolation("limited feedback needs N_U > d_s: with square patterns "
                                    "there is nothing to quantize")
        lam = self.leakage(tset)[0].T.ravel()  # users in flat (cell, user) order
        bits = [(fb.dba_allocate(lam, budget, cfg.d_s, cfg.N_U) if rule == "dba"
                 else fb.eba_allocate(budget, cfg.user_count)).tolist()
                for rule, budget in self._entries[scheme][0]]
        chunk = max(1, gia.SCREEN_CHUNK_BYTES // (16 * cfg.user_count * cfg.N_B ** 2))
        dist, images = [], []
        for start in range(0, len(bits), chunk):
            q, d = self.quantized(scheme, tset, bits[start:start + chunk])
            U = fb.quantized_decoder(self.ch, tset.assignment, q, tset.patterns)
            dist.append(d)
            images.append(gia.link_images(self.ch, U, q))
        return np.concatenate(dist), np.concatenate(images)

    def feedback_rates(self, cfg: SystemConfig, scheme: SchemeSpec, tset: gia.TransceiverSet):
        """(user rates, per-cell RINR, per-cell bound) of ``scheme``'s feedback entry
        at ``cfg``, read at the entry's position in the stacks of its group, kept under
        the key of the group's ``feedback`` pass. A miss evaluates every entry of the
        pass at every planned config, in one call each of ``throughput``, ``rinr`` and
        ``rinr_upper_bound`` over a leading (config, entry) axis.
        :class:`ContractViolation` if no cell of the build runs ``scheme``."""
        if scheme not in self._entries:
            raise ContractViolation(f"scheme {scheme.label} at {scheme.bits_budget} bits is "
                                    f"not among the cells of the trial's build")
        entries, position = self._entries[scheme]

        def evaluate(configs):
            dist, images = self.feedback(scheme, tset)
            return list(zip(throughput(images, configs), fb.rinr(tset.assignment, images, configs),
                            fb.rinr_upper_bound(tset.assignment, configs, dist,
                                                self.leakage(tset)[0])))

        key = (tset.assignment.providers, entries, scheme.codebook_seed)
        return tuple(stack[position] for stack in self.rates(cfg, "feedback rates", key, evaluate))


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
        tset = build.transceivers(build.assignment(cfg, scheme))
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
    cells,
) -> tuple:
    """The ``_evaluate_trial`` summary of one cell of trial ``trial_index``; a
    degenerate draw is resampled once.

    ``builds`` holds the trial's builds by attempt, made for the sweep's
    (config, scheme) ``cells``. The resampled draw is made the first time a
    cell needs it and is then shared like the first.
    """
    last = None
    for attempt in range(2):
        if attempt == len(builds):
            builds.append(TrialBuild(cfg, seed, trial_index, attempt, cells))
        try:
            return _evaluate_trial(builds[attempt], cfg, scheme, attempt)
        except DegenerateChannel as exc:
            last = exc
    raise DegenerateChannel(
        f"trial {trial_index} (seed {seed}, scheme {scheme.label}) failed twice: {last}"
    )


def baseline_rb(build: TrialBuild, cfg: SystemConfig) -> np.ndarray:
    """(L, K) user rates of random subspace precoders with matched-filter receivers
    (no alignment), every planned config in one ``throughput`` call, whose images are
    formed there: random patterns, drawn in flat (cell, user) order from the stream
    after the channel draw, through matched-filter decoders. The rates memo keeps
    the value, so the stream is read once per draw."""
    def evaluate(configs):
        # one draw in the order of a complex_gaussian call per user: real, then imaginary
        x = build._rng_after_draw.standard_normal((cfg.user_count, 2, cfg.N_U, cfg.d_s))
        patterns = orthonormalize(((x[:, 0] + 1j * x[:, 1]) / np.sqrt(2.0)).reshape(
            cfg.K, cfg.L, cfg.N_U, cfg.d_s).swapaxes(0, 1))
        decoders = orthonormalize(gia.direct_channels(build.ch) @ patterns)
        return throughput(gia.link_images(build.ch, decoders, patterns), configs)

    return build.rates(cfg, "rb rates", None, evaluate)


def baseline_fdma(build: TrialBuild, cfg: SystemConfig) -> np.ndarray:
    """(L, K) user rates of orthogonal sharing: each user gets 1/(KL) of the band,
    eigen-beamforms its top d_s modes and spends its full power there (noise scales
    with the band fraction, hence the KL power boost). Every planned config in one call,
    from the top d_s eigenvalues of every user's direct-channel Gram, (L, K, d_s)."""
    def evaluate(configs):
        direct = gia.direct_channels(build.ch)
        gains = psd_eigvals(direct.conj().swapaxes(-1, -2) @ direct)[..., ::-1][..., :cfg.d_s]
        boost = per_config(configs, lambda c: c.user_count * c.P / (c.d_s * c.sigma2), gains.ndim)
        return np.sum(np.log1p(boost * gains), axis=-1) / cfg.user_count

    return build.rates(cfg, "fdma rates", None, evaluate)


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
    if log_base == "e":
        return 1.0
    if log_base == "2":
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
    values = [value for value in spec.grid for _ in spec.schemes]  # grid value of each cell
    cells = [  # one config object per grid point, shared by its schemes
        (point_cfg, replace(scheme, bits_budget=int(value)) if spec.variable == "B" else scheme)
        for value in spec.grid
        for point_cfg in [cfg.at_snr_db(value) if spec.variable == "snr_db" else cfg]
        for scheme in spec.schemes
    ]
    summaries = []  # trial-major, then cell
    for t in range(spec.trials):
        builds = []  # this trial's builds by attempt; dropped after the trial
        for point_cfg, point_scheme in cells:
            summaries.append(_run_cell(builds, point_cfg, point_scheme, t, spec.seed, cells))
    records = np.reshape(summaries, (spec.trials, len(cells), 5)).T  # (field, cell, trial)
    rows = []
    for value, (_, point_scheme), aggregate in zip(values, cells, _aggregate(records)):
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
