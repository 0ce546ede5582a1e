"""The Python bodies of :mod:`repro.kernels`' compiled loops.

``src/repro/_kernels.c`` transcribes each of these; the tests hold the two
to the same bytes.  Every function here has its kernel's name and call
signature: ``walk``, ``smooth_wrr``, ``station_stats``, ``band_dp``,
``predict_bank`` (the curve law, one numpy pass over a bank),
``bisect_bank`` (the §4.5 inversion's lockstep bisection over
``predict_bank``), ``expand_core`` (the stage loop of the ``mckp`` solver's
core DP) and ``probe_round`` (a KLM probe round: the per-DIP draws, then
the latencies and their means as one array pass), and the scalar M/M/c/K
law the probe round evaluates: ``erlang_c``, ``mean_latency`` and
``drop_probability``, with ``mean_latencies``, the mean over a matrix of
law rows.
"""

from __future__ import annotations

import heapq
import math
import time
from typing import Callable

import numpy as np

_NAN = float("nan")
_INF = float("inf")


def walk(
    arrivals: np.ndarray,
    departures: np.ndarray,
    i: int,
    free: np.ndarray,
    ring: np.ndarray,
    pos: int,
    draws: np.ndarray,
    j: int,
    scale: float,
    aligned: bool,
    until: float,
    busy: float,
) -> tuple[int, int, int, float]:
    """Walk ``arrivals[i:]`` through one FCFS M/M/c/K station.

    ``free`` is the heap of worker-free times and ``ring`` the start times
    of the last ``len(ring)`` admissions that had to wait, the oldest at
    ``pos``: an arrival at ``a`` is dropped iff ``ring[pos] > a`` (with no
    queue, iff every worker frees after ``a``).  Each admitted request
    starts at ``max(a, free[0])`` and takes ``draws[j] * scale`` of
    service; one that would start after ``until`` takes none and departs
    at ``inf``, a drop at NaN, written to ``departures[i]``.

    ``aligned``: ``draws`` is aligned to ``arrivals`` and a request that
    takes no service skips its entry.  Otherwise ``draws`` is a buffer of
    unit draws read from ``j``, and the walk stops at the first start that
    finds it empty.  ``free``, ``ring`` and ``departures`` are updated in
    place; returns ``(i, j, pos, busy)`` where the walk stopped, ``busy``
    plus the service it handed out.
    """
    heap = free.tolist()
    starts = ring.tolist()
    lag = len(starts)
    units = draws.tolist()
    end = len(units)
    heapreplace = heapq.heapreplace
    out: list[float] = []
    depart = out.append
    first = i
    for a in arrivals[i:].tolist():
        if (starts[pos] if lag else heap[0]) > a:  # the station is full at ``a``
            depart(_NAN)
            j += aligned
            continue
        start = heap[0]
        waits = start > a  # every worker is busy (so there is a queue)
        if waits and start > until:
            starts[pos] = start
            pos = (pos + 1) % lag
            depart(_INF)
            j += aligned
            continue
        if j == end:
            break  # out of unit draws: the caller refills and resumes here
        if waits:
            starts[pos] = start
            pos = (pos + 1) % lag
        else:
            start = a
        service = units[j] * scale
        j += 1
        leaves = start + service
        heapreplace(heap, leaves)
        busy += service
        depart(leaves)
    i = first + len(out)
    departures[first:i] = out
    free[:] = heap
    ring[:] = starts
    return i, j, pos, busy


def smooth_wrr(
    current: np.ndarray,
    w: np.ndarray,
    total: float,
    out: np.ndarray | None,
    count: int,
) -> int | None:
    """``count`` smooth-WRR picks over aligned arrays, advancing ``current``.

    Every candidate's score grows by its weight, the highest score wins —
    the first of equal scores, so ties go in pool order — and the winner
    pays the total back.  Pick ``k`` goes to ``out[k]`` (unless ``out`` is
    ``None``); returns the last pick, ``None`` for ``count == 0``.
    """
    best = None
    for k in range(count):
        current += w
        best = int(current.argmax())
        current[best] -= total
        if out is not None:
            out[k] = best
    return best


def station_stats(
    arrivals: np.ndarray,
    admitted: np.ndarray,
    departures: np.ndarray,
    servers: int,
    until: float,
) -> tuple[float, float]:
    """A station's ``(busy_time_s, busy_worker_seconds)`` from its events.

    :class:`repro.sim.queueing.DipStation` integrates busy workers at every
    arrival and departure in time order (a departure before an arrival of
    the same instant), one ``+=`` per event, and the integral closes at
    ``until`` (with none, at the last event); ``cumsum`` is that same
    left-to-right sum, so both come out to the last bit.  ``arrivals`` and
    ``departures`` (the completed ones) are each sorted, so the stable sort
    is a merge of them; with no event at all both integrals are zero.
    """
    closing = [until] if until < _INF else []
    times = np.concatenate([departures, arrivals, closing])
    if not times.size:
        return 0.0, 0.0
    step = np.zeros(times.size, dtype=np.int8)
    step[: departures.size] = -1
    step[departures.size : departures.size + arrivals.size] = admitted
    order = times.argsort(kind="stable")
    times, step = times[order], step[order]
    del order
    holding = step.cumsum(dtype=np.int32)
    holding -= step  # in the station just before each event
    elapsed = np.diff(times, prepend=0.0)
    del times
    worker_seconds = np.minimum(holding, servers) * elapsed
    elapsed *= holding > 0
    return (
        float(elapsed.cumsum(out=elapsed)[-1]),
        float(worker_seconds.cumsum(out=worker_seconds)[-1]),
    )


def _bands(units: list[list[int]], lo: int, hi: int) -> tuple[list[int], list[int]]:
    """Per DIP ``i``, the unit sums ``[band_lo[i], band_hi[i]]`` the DP keeps.

    Only candidates of at most ``hi`` units can ever be picked; with min and
    max over those, a sum over ``dips[: i + 1]`` is reachable only inside
    ``[Σmin≤i, Σmax≤i]`` and can still end in ``[lo, hi]`` only inside
    ``[lo − Σmax>i, hi − Σmin>i]``.  A DIP with no such candidate empties
    every band, as does a window out of reach.
    """
    fits = [[k for k in ks if k <= hi] for ks in units]
    if not all(fits):
        return [0] * len(units), [-1] * len(units)
    mins, maxs = [min(ks) for ks in fits], [max(ks) for ks in fits]
    before_min = before_max = 0
    after_min, after_max = sum(mins), sum(maxs)
    band_lo, band_hi = [], []
    for least, most in zip(mins, maxs):
        before_min, after_min = before_min + least, after_min - least
        before_max, after_max = before_max + most, after_max - most
        band_lo.append(max(before_min, lo - after_max, 0))
        band_hi.append(min(before_max, hi - after_min))
    return band_lo, band_hi


def band_dp(
    units: np.ndarray,
    latencies: np.ndarray,
    k: int,
    lo: int,
    hi: int,
    selection: np.ndarray,
) -> bool:
    """The least-latency pick of one candidate per DIP whose units sum into
    ``[lo, hi]``; whether there is one.

    Row ``i`` of ``units`` (int64) and ``latencies`` (float64), ``k`` wide,
    are DIP ``i``'s candidates: units ``>= 0`` and latencies finite and
    ``>= 0`` (else :class:`ValueError`), a row padded past ``hi`` so the
    pad never fits.  After DIP
    ``i`` only the sums of :func:`_bands` are kept, each the least over the
    candidates in order of its source cell plus the candidate's latency (one
    ``np.minimum`` per candidate), so the DP costs the band, not ``[0, hi]``.
    The answer is the first cheapest sum in the window, traced back per DIP
    to the first candidate whose source cell plus its latency is the cell's
    value — the one a strict ``<`` sweep over the candidates would have
    recorded, since every later one can only tie; its index goes to
    ``selection[i]``.
    """
    units = np.asarray(units).reshape(-1, k)
    latencies = np.asarray(latencies).reshape(-1, k)
    if (units < 0).any() or not ((latencies >= 0) & (latencies < _INF)).all():
        raise ValueError("band_dp: units must be >= 0 and latencies finite and >= 0")
    steps, lats = units.tolist(), latencies.tolist()
    band_lo, band_hi = _bands(steps, lo, hi)
    # costs[i][u - band_lo[i]] = min latency to reach exactly u units with
    # DIPs 0..i; before the first DIP only u = 0 is reached, at no cost.
    cost = np.zeros(1)
    prev_lo, prev_hi = 0, 0
    costs: list[np.ndarray] = []
    for low, high, row, row_lats in zip(band_lo, band_hi, steps, lats):
        new_cost = np.full(max(0, high - low + 1), np.inf)
        for step, latency in zip(row, row_lats):
            # The cells u in the band whose source u - step the last band holds.
            first, last = max(low, prev_lo + step), min(high, prev_hi + step)
            if first > last:
                continue
            cells = new_cost[first - low : last - low + 1]
            shifted = cost[first - step - prev_lo : last - step - prev_lo + 1]
            np.minimum(cells, shifted + latency, out=cells)
        cost, prev_lo, prev_hi = new_cost, low, high
        costs.append(cost)
    # The last band is the window [lo, hi] cut to the reachable sums.
    if not np.isfinite(cost).any():
        return False
    reached = band_lo[-1] + int(np.argmin(cost))
    for i in range(len(steps) - 1, -1, -1):
        target = costs[i][reached - band_lo[i]]
        before = costs[i - 1] if i else np.zeros(1)
        low, high = (band_lo[i - 1], band_hi[i - 1]) if i else (0, 0)
        for j, (step, latency) in enumerate(zip(steps[i], lats[i])):
            source = reached - step
            if low <= source <= high and before[source - low] + latency == target:
                break
        selection[i] = j
        reached = source
    return True


#: the scan that bounds a degree > 2 polynomial over ``[0, w]``.
_SCAN = np.arange(64.0)


def _horner(columns: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    """``np.polyval`` with a polynomial per row: ``columns`` are the
    coefficients, highest degree first, each broadcast against ``x``.

    Leading zero columns keep the accumulator at +0, the ``polyval`` start
    value, so a zero-padded row takes the same operations as its own
    polynomial.
    """
    y = np.zeros_like(x)
    for column in columns:
        y = y * x + column
    return y


def predict_bank(
    table: np.ndarray,
    width: int,
    monotone: np.ndarray,
    vertex: np.ndarray,
    peak: np.ndarray,
    scanned: np.ndarray,
    ws: np.ndarray,
    out: np.ndarray,
) -> None:
    """Row ``i`` of ``ws`` (rows, k) through the envelope of the bank's
    curve ``i``, written to ``out``: the polynomial at ``w / scale``, the
    monotone correction (the constant term; past a concave vertex, its
    peak; on a scanned row the max of a 64-point scan of ``[0, w]``) and
    the l0 floor (:func:`repro.core.curve.predict_curves`)."""
    columns = [table[:, j : j + 1] for j in range(width)]
    scale, l0 = table[:, width : width + 1], table[:, width + 1 :]
    vertex, peak = vertex.reshape(-1, 1), peak.reshape(-1, 1)
    values = _horner(columns, ws / scale)
    # The polynomial at weight 0 is its constant term.
    values = np.where(monotone.reshape(-1, 1), np.maximum(columns[-1], values), values)
    values = np.where(vertex < ws, np.maximum(values, peak), values)
    rows = np.flatnonzero(scanned).tolist()
    if rows:
        # No closed form: scan 64 points of [0, w] per weight, each
        # ``np.linspace(0.0, w, 64)`` (whose step is w / 63 unless that
        # underflows to 0).
        w = ws[rows][..., None]
        step = w / 63
        scan = np.where(step == 0, _SCAN / 63 * w, _SCAN * step) + 0.0
        scan[..., -1] = w[..., 0]
        envelope = _horner([column[rows, :, None] for column in columns], scan / scale[rows, :, None])
        values[rows] = np.maximum(values[rows], envelope.max(axis=-1))
    out[:] = np.maximum(l0, values)


def bisect_bank(
    table: np.ndarray,
    width: int,
    monotone: np.ndarray,
    vertex: np.ndarray,
    peak: np.ndarray,
    scanned: np.ndarray,
    targets: np.ndarray,
    uppers: np.ndarray,
    tol: float,
    found: np.ndarray,
) -> None:
    """:func:`repro.core.curve.weights_for_latencies`' bisections in
    lockstep, written to ``found``: per halving, one :func:`predict_bank`
    of every curve's mid.

    A curve's weight is its ``hi`` once its bracket is under ``tol``, or
    after the 200th halving; answered curves ride along in the predictions.
    """
    bank = (table, width, monotone, vertex, peak, scanned)

    def predict(ws: np.ndarray) -> np.ndarray:
        out = np.empty_like(ws)
        predict_bank(*bank, ws, out)
        return out

    ends = predict(np.stack([np.zeros_like(uppers), uppers], axis=1))
    # At or below the prediction at 0 the weight is 0, past the prediction
    # at ``upper`` it is ``upper``.
    idle = targets <= ends[:, 0]
    found[:] = np.where(idle, 0.0, uppers)
    searching = ~idle & ~(ends[:, 1] < targets)
    lo, hi = np.zeros_like(uppers), uppers.copy()
    for _ in range(200):
        if not searching.any():
            return
        mid = (lo + hi) / 2.0
        reached = predict(mid[:, None])[:, 0] >= targets
        hi, lo = np.where(reached, mid, hi), np.where(reached, lo, mid)
        answered = searching & (hi - lo < tol)
        found[answered] = hi[answered]
        searching &= ~answered
    found[searching] = hi[searching]


def _cheapest_of_ties(w: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Positions of one state per run of equal ``w``: the cheapest, the first
    of equally cheap ones."""
    starts = np.ones(len(w), dtype=bool)
    starts[1:] = w[1:] != w[:-1]
    if starts.all():
        return np.flatnonzero(starts)
    run = np.cumsum(starts) - 1
    hits = np.flatnonzero(c == np.minimum.reduceat(c, np.flatnonzero(starts))[run])
    first = np.ones(len(hits), dtype=bool)
    first[1:] = run[hits[1:]] != run[hits[:-1]]
    return hits[first]


def expand_core(
    dW: np.ndarray,
    dC: np.ndarray,
    usable: np.ndarray,
    base: np.ndarray,
    order: np.ndarray,
    edge_stage: np.ndarray,
    edge_dw: np.ndarray,
    edge_dc: np.ndarray,
    taken: int,
    shed_after: np.ndarray,
    w0: float,
    c0: float,
    lo: float,
    hi: float,
    slack: float,
    deadline: float | None,
    incumbent: float,
    bucket: float | None,
    accept: Callable[[np.ndarray], bool] | None,
    gap: float,
    budget: int,
    found: np.ndarray,
) -> tuple[bool, float, int, bool]:
    """The stage loop of ``repro.solver.mckp._expand_core``: one DIP of
    ``order`` per stage over (weight, cost) states, from the one state
    ``(w0, c0)`` of every DIP at ``base``.

    ``dW`` / ``dC`` are each column's weight and cost less its DIP's base
    column, ``edge_stage`` the stage each hull edge's DIP enters at (the
    first ``taken`` edges left of the base) and ``shed_after[s]`` how much
    lighter the DIPs after stage ``s`` can still make a state.  The
    best selection found that beats ``incumbent`` goes to ``found``;
    returns whether there was one, the program's lower bound, the states
    kept and whether ``deadline`` cut the search.
    """
    left = np.arange(len(edge_stage)) < taken
    w, c = np.array([w0]), np.array([c0])
    trail: list[tuple[np.ndarray, np.ndarray]] = []
    best: np.ndarray | None = None
    best_cost, dropped, states, loss = incumbent, np.inf, 0, 0.0
    for s, d in enumerate(order.tolist()):
        if deadline is not None and time.perf_counter() > deadline:
            if best is not None:
                found[:] = best
            return best is not None, -np.inf, states, True
        cols = np.flatnonzero(usable[d])
        cw = (dW[d, cols, None] + w).ravel()
        cc = (dC[d, cols, None] + c).ravel()
        # LP completion by the DIPs still outside the core: climb their right
        # edges when the state is short of ``lo``, shed along their left
        # edges (steepest first) when it is past it.
        outside = edge_stage > s
        up, down = outside & ~left, np.flatnonzero(outside & left)[::-1]
        xs = np.concatenate((-edge_dw[down].cumsum()[::-1], [0.0], edge_dw[up].cumsum()))
        ys = np.concatenate((-edge_dc[down].cumsum()[::-1], [0.0], edge_dc[up].cumsum()))
        bound = cc + np.interp(lo - cw, xs, ys, right=np.inf)

        done = np.flatnonzero((cw >= lo - slack) & (cw <= hi + slack) & (cc < best_cost))
        for i in done[np.argsort(cc[done], kind="stable")].tolist():
            sel = base.copy()
            sel[d] = cols[i // len(w)]
            p = i % len(w)
            for t in range(s - 1, -1, -1):
                parents, items = trail[t]
                sel[order[t]] = items[p]
                p = parents[p]
            if accept is None or accept(sel):
                best, best_cost = sel, float(cc[i])
                break

        keep = np.flatnonzero(
            (bound < best_cost * (1.0 - gap / 2)) & (cw - shed_after[s] <= hi + slack)
        )
        # Heaviest first: ``w`` is kept heaviest first, so each column's block
        # of ``cw`` is a descending run and the stable sort merges the runs.
        # DIPs with the same grid make exact weight ties structural; of a tie
        # either program can keep only the cheapest state (the first of
        # equally cheap ones).
        by_weight = keep[np.argsort(-cw[keep], kind="stable")]
        keep = by_weight[_cheapest_of_ties(cw[by_weight], cc[by_weight])]
        if bucket is None:
            if len(keep) > budget:
                # The lowest bounds (ties by weight order), put back heaviest
                # first; the least bound among the rest is remembered.
                cut = np.argsort(bound[keep], kind="stable")
                dropped = min(dropped, float(bound[keep[cut[budget]]]))
                keep = keep[np.sort(cut[:budget])]
        else:
            # Over budget the buckets widen (and stay wide): the frontier is
            # thinned evenly and what that can cost is known, where dropping
            # the states with the worst bounds could cost anything.
            first = np.ones(len(keep), dtype=bool)
            while True:
                level = np.floor(cc[keep] / bucket) if bucket > 0.0 else cc[keep]
                first[1:] = level[1:] < np.minimum.accumulate(level)[:-1]
                if first.sum() <= budget:
                    break
                bucket = max(2.0 * bucket, gap / 2 * best_cost / len(base))
            keep = keep[first]
            loss += bucket
        if not len(keep):
            break
        trail.append((keep % len(w), cols[keep // len(w)]))
        w, c = cw[keep], cc[keep]
        states += len(keep)

    if best is not None:
        found[:] = best
    lower = min(best_cost * (1.0 - gap / 2), dropped) - loss
    return best is not None, lower, states, False


# -- the M/M/c/K law and the probe round ---------------------------------------------


def erlang_c(servers: int, offered_load: float) -> float:
    """Erlang-C probability that an arriving request must queue, at
    ``offered_load`` >= 0 Erlangs on ``servers`` workers."""
    if offered_load >= servers:
        return 1.0
    if offered_load == 0:
        return 0.0
    # Iterative Erlang-B, then convert to Erlang-C; numerically stable.
    inv_b = 1.0
    for k in range(1, int(servers) + 1):
        inv_b = 1.0 + inv_b * k / offered_load
    erlang_b = 1.0 / inv_b
    rho = offered_load / servers
    return erlang_b / (1.0 - rho + rho * erlang_b)


def mean_latency(
    servers: int,
    capacity_rps: float,
    idle_latency_ms: float,
    max_queue: int,
    rate_rps: float,
    scv_correction: float,
) -> float:
    """``LatencyModel.mean_latency_ms`` at ``rate_rps`` >= 0."""
    if rate_rps == 0:
        return idle_latency_ms

    mu = capacity_rps / servers  # per-server rate, req/s
    offered = rate_rps / mu  # Erlangs
    service_time_ms = idle_latency_ms

    saturation = capacity_rps * 0.999
    if rate_rps < saturation:
        pq = erlang_c(servers, offered)
        # Mean wait in queue (seconds) for M/M/c, converted to ms.
        wait_s = pq / (servers * mu - rate_rps)
        wait_ms = wait_s * 1000.0 * scv_correction
        # Bound by the finite queue: cannot wait longer than draining a
        # full queue.
        max_wait_ms = max_queue / capacity_rps * 1000.0
        return service_time_ms + min(wait_ms, max_wait_ms)

    # At or past saturation the queue stays full: latency plateaus at
    # service time + time to drain the full queue.
    max_wait_ms = max_queue / capacity_rps * 1000.0
    return service_time_ms + max_wait_ms


def mean_latencies(law: np.ndarray, rates: np.ndarray, out: np.ndarray) -> None:
    """Each law row's ``mean_latency`` at its rate in ``rates``, into
    ``out``; ``inf`` for a down row (servers 0).  A negative (or NaN) rate
    is refused, a down row's too."""
    from repro.exceptions import ConfigurationError

    for i, (row, rate) in enumerate(zip(law.tolist(), rates.tolist())):
        servers, capacity, idle, max_queue, _drop_utilization, scv = row
        if not rate >= 0:
            raise ConfigurationError("rates must be >= 0")
        if servers == 0:
            out[i] = _INF
        else:
            out[i] = mean_latency(servers, capacity, idle, max_queue, rate, scv)


def drop_probability(capacity_rps: float, drop_utilization: float, rate_rps: float) -> float:
    """``LatencyModel.drop_probability`` at ``rate_rps`` >= 0."""
    util = rate_rps / capacity_rps
    if util <= drop_utilization:
        return 0.0
    if util >= 1.0:
        return max(0.0, 1.0 - capacity_rps / rate_rps) or 0.01
    # Between drop_utilization and 1.0: small but growing loss.
    span = 1.0 - drop_utilization
    return 0.05 * (util - drop_utilization) / span


def probe_round(
    params: np.ndarray, generators: list, num_requests: int
) -> tuple[list[float | None], list[int]]:
    """One probe batch of ``num_requests`` per row of ``params``
    (``servers, capacity_rps, idle_latency_ms, max_queue,
    drop_utilization, scv_correction, rate_rps, jitter_fraction``): its mean
    latency (``None`` where the generator is ``None``: down; ``inf``: every
    request dropped) and its drop count.

    Each DIP draws from its own generator its drops (no draw at a drop
    probability of 0), then a standard normal per served request.
    ``max(mean / 4, mean + sd * z)`` and the row means are then one array
    pass, bit for bit the per-DIP ``normal`` draws and reductions.
    """
    size = len(generators)
    loc, scale = [0.0] * size, [0.0] * size
    z = np.zeros((size, num_requests))
    means: list[float | None] = [None] * size
    drop_counts: list[int] = [0] * size
    served_rows: list[tuple[int, int]] = []
    for i, (row, rng) in enumerate(zip(params.tolist(), generators)):
        if rng is None:
            continue
        servers, capacity, idle, max_queue, drop_utilization, scv, rate, jitter = row
        drop_p = drop_probability(capacity, drop_utilization, rate)
        drops = int(rng.binomial(num_requests, min(1.0, drop_p))) if drop_p else 0
        served = num_requests - drops
        drop_counts[i] = drops
        means[i] = math.inf
        if not served:
            continue
        mean = loc[i] = mean_latency(servers, capacity, idle, max_queue, rate, scv)
        if jitter:
            scale[i] = mean * jitter
            rng.standard_normal(out=z[i, :served])
        served_rows.append((i, served))
    # z -> mean + sd * z, floored at mean / 4, in place.
    mean_col = np.array(loc)[:, None]
    z *= np.array(scale)[:, None]
    z += mean_col
    latencies = np.maximum(z, mean_col * 0.25, out=z)
    # A full row's sum is the row-wise reduce; a partly dropped one its own.
    full = (np.add.reduce(latencies, axis=1) / num_requests).tolist()
    for i, served in served_rows:
        if served == num_requests:
            means[i] = full[i]
        else:
            means[i] = float(np.add.reduce(latencies[i, :served]) / served)
    return means, drop_counts
