"""Bursty, heavy-tailed and trace-driven workload generators.

Everything PR 2-9 built ran on the friendliest traffic that exists —
Poisson arrivals and exponential service.  This module supplies the
stress: Markov-modulated Poisson (MMPP) and flash-crowd arrival
processes, lognormal / Pareto / elephant-mix service-time samplers, and
CSV/JSONL trace replay.

Arrival processes stream through the same allocation-lean chunk
interface :class:`~repro.sim.client.WorkloadGenerator` already exposes:
:meth:`ArrivalProcess.produce` hands back the next ``n`` interarrival
gaps as one numpy array.  Generation happens internally in fixed-size
candidate blocks on dedicated RNG lanes, so the gap stream is
bit-identical per seed **regardless of the chunk sizes consumers
request** — ``produce(4096)`` equals 4096 calls of ``produce(1)``
concatenated.  That invariance is what lets the request engine keep its
pop-from-buffer hot path and what makes results reproducible across
refill boundaries.

Service samplers are unit-mean by construction (the station scales draws
by the DIP's mean service time at consumption, exactly as the legacy
exponential path does), so ``load_fraction`` keeps its meaning under
every kind.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.exceptions import ConfigurationError
from repro.workloads.kinds import ARRIVAL_KINDS, SERVICE_KINDS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.spec import ArrivalSpec, ServiceSpec

#: Internal candidate-block size.  Fixed — never derived from the
#: consumer's chunk size — so RNG consumption is chunk-invariant.
_GEN_BLOCK = 4096


def _lane_rng(seed: int | None, lane: int) -> np.random.Generator:
    """A dedicated generator lane so each random purpose has its own stream."""
    if seed is None:
        return np.random.default_rng()
    return np.random.default_rng([int(seed), lane])


class ArrivalProcess:
    """Streaming interarrival-gap source behind ``WorkloadGenerator``.

    Subclasses implement :meth:`_generate_block`, which appends a batch of
    gaps generated from a *fixed* number of internal candidate draws.  The
    base class owns the pending buffer and slices it to whatever chunk
    sizes the consumer asks for, which is how chunk-size invariance falls
    out: internal generation never sees the requested ``n``.
    """

    kind = "base"

    def __init__(self, rate_rps: float) -> None:
        if rate_rps <= 0:
            raise ConfigurationError("arrival rate must be positive")
        self.rate_rps = float(rate_rps)
        self._pending: list[np.ndarray] = []
        self._pending_count = 0

    def produce(self, n: int) -> np.ndarray:
        """The next ``n`` interarrival gaps (seconds), in arrival order."""
        while self._pending_count < n:
            block = self._generate_block()
            if block.size:
                self._pending.append(block)
                self._pending_count += block.size
        out: list[np.ndarray] = []
        need = n
        while need > 0:
            head = self._pending[0]
            if head.size <= need:
                out.append(head)
                need -= head.size
                self._pending.pop(0)
            else:
                out.append(head[:need])
                self._pending[0] = head[need:]
                need = 0
        self._pending_count -= n
        return out[0] if len(out) == 1 else np.concatenate(out)

    def set_rate(self, rate_rps: float) -> None:
        """Retarget the mean rate.

        This is the ``arrival_scale`` timeline contract for non-Poisson
        kinds: the *modulating rates themselves* rescale (every state's
        absolute intensity for MMPP, the base rate for flash crowds, the
        replay clock for traces), and gaps already buffered here are
        rescaled in place, not just regenerated.
        """
        if rate_rps <= 0:
            raise ConfigurationError("arrival rate must be positive")
        factor = self.rate_rps / rate_rps
        if factor == 1.0:
            return
        self.rate_rps = float(rate_rps)
        self._pending = [gaps * factor for gaps in self._pending]
        self._pending_count = sum(int(g.size) for g in self._pending)
        self._rescale(factor)

    def _rescale(self, factor: float) -> None:
        """Subclass hook: rescale un-generated future time by ``factor``."""

    def _generate_block(self) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError


class MarkovModulatedPoisson(ArrivalProcess):
    """MMPP arrivals: a cyclic CTMC switches the Poisson intensity.

    ``state_rates`` are *relative* intensities, normalized so the
    stationary mean intensity equals ``rate_rps`` (``load_fraction``
    keeps its meaning).  ``switch_rates[i]`` is the exit rate of state
    ``i`` (mean sojourn ``1/switch_rates[i]``); the chain cycles
    ``0 -> 1 -> ... -> 0``.  Arrivals come from thinning a dominating
    Poisson stream at the peak state intensity; candidates, acceptance
    and CTMC sojourns each draw from their own RNG lane so the stream is
    chunk-invariant and deterministic per seed.
    """

    kind = "mmpp"

    def __init__(
        self,
        rate_rps: float,
        *,
        state_rates: tuple[float, ...],
        switch_rates: tuple[float, ...],
        seed: int | None = None,
    ) -> None:
        super().__init__(rate_rps)
        rates = np.asarray(state_rates, dtype=float)
        switches = np.asarray(switch_rates, dtype=float)
        if rates.size < 2:
            raise ConfigurationError("mmpp needs at least two state_rates")
        if switches.size != rates.size:
            raise ConfigurationError(
                f"mmpp switch_rates must match state_rates "
                f"({switches.size} vs {rates.size})"
            )
        if (rates < 0).any() or float(rates.max()) <= 0:
            raise ConfigurationError("mmpp state_rates must be >= 0, max > 0")
        if (switches <= 0).any():
            raise ConfigurationError("mmpp switch_rates must be positive")
        sojourns = 1.0 / switches
        stationary = sojourns / sojourns.sum()
        self._multipliers = rates / float(stationary @ rates)
        self._switch = switches
        self._rng_cand = _lane_rng(seed, 1)
        self._rng_accept = _lane_rng(seed, 2)
        self._rng_state = _lane_rng(seed, 3)
        self._state = 0
        self._clock = 0.0
        self._last_arrival = 0.0
        #: piecewise-constant intensity path: segment end times + multipliers.
        self._seg_ends: list[float] = []
        self._seg_mults: list[float] = []
        self._path_end = 0.0

    def _extend_path(self, until: float) -> None:
        while self._path_end <= until:
            sojourn = self._rng_state.exponential(
                1.0 / float(self._switch[self._state])
            )
            self._path_end += sojourn
            self._seg_ends.append(self._path_end)
            self._seg_mults.append(float(self._multipliers[self._state]))
            self._state = (self._state + 1) % self._multipliers.size

    def _generate_block(self) -> np.ndarray:
        peak = float(self._multipliers.max())
        gaps = self._rng_cand.exponential(
            1.0 / (self.rate_rps * peak), size=_GEN_BLOCK
        )
        times = self._clock + np.cumsum(gaps)
        self._clock = float(times[-1])
        self._extend_path(self._clock)
        ends = np.asarray(self._seg_ends)
        mult = np.asarray(self._seg_mults)[
            np.searchsorted(ends, times, side="left")
        ]
        accepted = times[self._rng_accept.random(_GEN_BLOCK) * peak < mult]
        done = int(np.searchsorted(ends, self._clock, side="left"))
        if done > 64:
            del self._seg_ends[:done]
            del self._seg_mults[:done]
        if accepted.size == 0:
            return accepted
        out = np.diff(accepted, prepend=self._last_arrival)
        self._last_arrival = float(accepted[-1])
        return out


class FlashCrowd(ArrivalProcess):
    """Shot-noise flash-crowd arrivals.

    Burst onsets form a Poisson process at ``burst_rate_per_s``; each
    burst adds ``burst_height`` times the base intensity, decaying
    exponentially with time constant ``burst_decay_s``.  The base rate is
    normalized by the stationary boost ``1 + height * rate * decay`` so
    the long-run mean stays ``rate_rps``.  Between onsets the intensity
    only decays, so its value at a segment start bounds the segment and
    thinning against that bound is exact.
    """

    kind = "flash_crowd"

    def __init__(
        self,
        rate_rps: float,
        *,
        burst_rate_per_s: float,
        burst_height: float,
        burst_decay_s: float,
        seed: int | None = None,
    ) -> None:
        super().__init__(rate_rps)
        if burst_rate_per_s <= 0:
            raise ConfigurationError("flash_crowd burst_rate_per_s must be > 0")
        if burst_height <= 0:
            raise ConfigurationError("flash_crowd burst_height must be > 0")
        if burst_decay_s <= 0:
            raise ConfigurationError("flash_crowd burst_decay_s must be > 0")
        self.burst_rate_per_s = float(burst_rate_per_s)
        self.burst_height = float(burst_height)
        self.burst_decay_s = float(burst_decay_s)
        self._mean_boost = 1.0 + burst_height * burst_rate_per_s * burst_decay_s
        self._rng_cand = _lane_rng(seed, 11)
        self._rng_accept = _lane_rng(seed, 12)
        self._rng_burst = _lane_rng(seed, 13)
        self._clock = 0.0
        self._last_arrival = 0.0
        self._bursts: list[float] = []
        self._next_burst: float | None = None

    def _boost_at(self, times: np.ndarray) -> np.ndarray:
        boost = np.ones_like(times)
        for onset in self._bursts:
            boost += self.burst_height * np.exp(
                -(times - onset) / self.burst_decay_s
            )
        return boost

    def _generate_block(self) -> np.ndarray:
        if self._next_burst is None:
            self._next_burst = self._clock + self._rng_burst.exponential(
                1.0 / self.burst_rate_per_s
            )
        base = self.rate_rps / self._mean_boost
        bound = float(self._boost_at(np.asarray([self._clock]))[0])
        gaps = self._rng_cand.exponential(
            1.0 / (base * bound), size=_GEN_BLOCK
        )
        times = self._clock + np.cumsum(gaps)
        cut = int(np.searchsorted(times, self._next_burst, side="right"))
        times = times[:cut]
        if cut:
            accepted = times[
                self._rng_accept.random(cut) * bound < self._boost_at(times)
            ]
        else:
            accepted = times
        if cut < _GEN_BLOCK:
            # The segment ended at the burst onset: arm the burst and drop
            # contributions decayed to nothing (e^-40) so the sum stays O(1).
            self._clock = self._next_burst
            self._bursts.append(self._next_burst)
            self._next_burst = None
            horizon = self._clock - 40.0 * self.burst_decay_s
            self._bursts = [b for b in self._bursts if b > horizon]
        else:
            self._clock = float(times[-1])
        if accepted.size == 0:
            return accepted
        out = np.diff(accepted, prepend=self._last_arrival)
        self._last_arrival = float(accepted[-1])
        return out


class TraceReplay(ArrivalProcess):
    """Deterministic replay of interarrival gaps from a trace file.

    The trace's timestamp column becomes a cyclic gap sequence (the first
    gap and the wrap-around gap are the trace's mean gap, so cycling does
    not inject a burst).  ``preserve_rate=True`` replays the trace's own
    mean rate — ``rate_rps`` then *reports* the trace rate instead of
    targeting the spec's; otherwise gaps are scaled once so the mean rate
    matches the requested one.  No RNG is involved: replay is exact.
    """

    kind = "trace"

    def __init__(
        self,
        rate_rps: float,
        *,
        path: str,
        time_column: str = "timestamp",
        preserve_rate: bool = False,
    ) -> None:
        timestamps = load_trace_timestamps(path, time_column=time_column)
        t = np.asarray(timestamps, dtype=float)
        span = float(t[-1] - t[0])
        if span <= 0:
            raise ConfigurationError(
                f"trace file {str(path)!r} spans zero time"
            )
        trace_rate = (t.size - 1) / span
        mean_gap = span / (t.size - 1)
        gaps = np.concatenate([[mean_gap], np.diff(t)])
        if preserve_rate:
            effective = trace_rate
        else:
            gaps = gaps * (trace_rate / rate_rps)
            effective = rate_rps
        super().__init__(effective)
        self.path = str(path)
        self.preserve_rate = bool(preserve_rate)
        self._gaps = gaps
        self._cursor = 0

    def set_rate(self, rate_rps: float) -> None:
        if self.preserve_rate and rate_rps != self.rate_rps:
            raise ConfigurationError(
                "a preserve_rate trace replays the trace's own clock and "
                "cannot be rescaled; set workload.arrival.preserve_rate = "
                "false to allow arrival_scale events"
            )
        super().set_rate(rate_rps)

    def _rescale(self, factor: float) -> None:
        self._gaps = self._gaps * factor

    def _generate_block(self) -> np.ndarray:
        start = self._cursor
        stop = min(start + _GEN_BLOCK, self._gaps.size)
        self._cursor = stop % self._gaps.size
        return self._gaps[start:stop].copy()


def load_trace_timestamps(
    path: str | Path, *, time_column: str = "timestamp"
) -> np.ndarray:
    """Sorted arrival timestamps from a CSV or JSONL trace file."""
    file = Path(path)
    if not file.exists():
        raise ConfigurationError(
            f"trace file {str(file)!r} does not exist"
        )
    if file.suffix.lower() in {".jsonl", ".ndjson"}:
        values = _read_jsonl(file, time_column)
    else:
        values = _read_csv(file, time_column)
    if len(values) < 2:
        raise ConfigurationError(
            f"trace file {str(file)!r} holds {len(values)} arrivals; "
            "at least 2 are needed"
        )
    t = np.asarray(values, dtype=float)
    if (np.diff(t) < 0).any():
        raise ConfigurationError(
            f"trace file {str(file)!r} column {time_column!r} is not "
            "sorted by time"
        )
    return t


def _read_csv(file: Path, time_column: str) -> list[float]:
    with file.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        fields = reader.fieldnames or []
        if time_column not in fields:
            raise ConfigurationError(
                f"trace file {str(file)!r} has no column {time_column!r}; "
                f"columns: {', '.join(fields) or '(none)'}"
            )
        try:
            return [float(row[time_column]) for row in reader]
        except (TypeError, ValueError) as error:
            raise ConfigurationError(
                f"trace file {str(file)!r} column {time_column!r} holds a "
                f"non-numeric value: {error}"
            ) from None


def _read_jsonl(file: Path, time_column: str) -> list[float]:
    values: list[float] = []
    with file.open(encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ConfigurationError(
                    f"trace file {str(file)!r} line {lineno} is not valid "
                    f"JSON: {error}"
                ) from None
            if time_column not in record:
                raise ConfigurationError(
                    f"trace file {str(file)!r} line {lineno} has no field "
                    f"{time_column!r}"
                )
            values.append(float(record[time_column]))
    return values


def make_arrival_process(
    arrival: "ArrivalSpec", rate_rps: float, *, seed: int | None = None
) -> ArrivalProcess | None:
    """The :class:`ArrivalProcess` for a spec, or ``None`` for plain Poisson.

    Poisson stays ``None`` on purpose: ``WorkloadGenerator`` keeps its
    legacy inline exponential draw, bit-identical with every artifact
    recorded before this module existed.
    """
    kind = arrival.kind
    if kind == "poisson":
        return None
    if kind == "mmpp":
        return MarkovModulatedPoisson(
            rate_rps,
            state_rates=arrival.state_rates,
            switch_rates=arrival.switch_rates,
            seed=seed,
        )
    if kind == "flash_crowd":
        return FlashCrowd(
            rate_rps,
            burst_rate_per_s=arrival.burst_rate_per_s,
            burst_height=arrival.burst_height,
            burst_decay_s=arrival.burst_decay_s,
            seed=seed,
        )
    if kind == "trace":
        return TraceReplay(
            rate_rps,
            path=arrival.trace_path,
            time_column=arrival.trace_column,
            preserve_rate=arrival.preserve_rate,
        )
    raise ConfigurationError(
        f"unknown arrival kind {kind!r}; known kinds: "
        f"{', '.join(sorted(ARRIVAL_KINDS))}"
    )


def unit_service_sampler(
    service: "ServiceSpec", rng: np.random.Generator
) -> Callable[[int], np.ndarray]:
    """A unit-mean batched service sampler for ``DipStation``.

    Returns ``draw(n) -> ndarray`` of ``n`` unit-mean service draws on
    the station's own generator; the station scales them by the DIP's
    mean service time at consumption.  ``exponential`` returns the
    generator's bound ``standard_exponential`` — the bit-identical
    legacy path, consuming exactly the same stream.
    """
    kind = service.kind
    if kind == "exponential":
        return rng.standard_exponential
    if kind == "lognormal":
        sigma2 = math.log(1.0 + service.scv)
        sigma = math.sqrt(sigma2)
        mu = -0.5 * sigma2

        def draw_lognormal(n: int) -> np.ndarray:
            return rng.lognormal(mu, sigma, size=n)

        return draw_lognormal
    if kind == "pareto":
        alpha = service.tail_index
        scale = (alpha - 1.0) / alpha

        def draw_pareto(n: int) -> np.ndarray:
            # numpy's pareto is the Lomax form; 1 + Lomax is standard
            # Pareto with x_m = 1, rescaled here to unit mean.
            return scale * (1.0 + rng.pareto(alpha, size=n))

        return draw_pareto
    if kind == "elephant":
        p = service.elephant_fraction
        m = service.elephant_factor
        mouse_scale = 1.0 / ((1.0 - p) + p * m)

        def draw_elephant(n: int) -> np.ndarray:
            draws = rng.standard_exponential(n) * mouse_scale
            draws[rng.random(n) < p] *= m
            return draws

        return draw_elephant
    raise ConfigurationError(
        f"unknown service kind {kind!r}; known kinds: "
        f"{', '.join(sorted(SERVICE_KINDS))}"
    )
