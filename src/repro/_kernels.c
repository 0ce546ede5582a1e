/*
 * The scalar loops the simulator and the control tick spend their time in:
 * the FCFS station walk (StationWalk.advance), the smooth-WRR argmax loop
 * (WeightedRoundRobin, the epoch engine's _SmoothWrrRouter), a replayed
 * station's busy integrals (queueing._station_stats), the dp backend's band
 * DP (solver/dp.py), the section 4.5 curve inversion
 * (core/curve.py::weights_for_latencies) and the stage loop of the mckp
 * backend's expanding-core DP (solver/mckp.py::_expand_core).
 *
 * Each is a transcription of a Python body -- in repro/kernels.py, or for
 * the inversion in repro/core/curve.py and for the core DP in
 * repro/solver/mckp.py -- which runs where this module cannot be built and
 * which the tests hold it to byte for byte.  All use only IEEE additions,
 * subtractions, multiplications, divisions, floors and comparisons, in the
 * Python body's order; built with -ffp-contract=off (no
 * fused multiply-add) and without fast-math, every result is the bit the
 * Python body computes.  Arrays come in through the buffer protocol:
 * C-contiguous float64 (int32 for picks, int64 for units and selections,
 * bool for flags), no numpy C API.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

/* A C-contiguous buffer of one-character ``kinds`` items of ``itemsize``. */
static int
get_array(PyObject *obj, Py_buffer *view, int writable, Py_ssize_t itemsize,
          const char *kinds, const char *name)
{
    int flags = PyBUF_FORMAT | PyBUF_C_CONTIGUOUS;
    if (writable) {
        flags |= PyBUF_WRITABLE;
    }
    if (PyObject_GetBuffer(obj, view, flags) < 0) {
        return -1;
    }
    const char *format = view->format;
    if (format != NULL && (format[0] == '@' || format[0] == '=')) {
        format++;
    }
    if (view->itemsize != itemsize || format == NULL || format[0] == '\0'
        || format[1] != '\0' || strchr(kinds, format[0]) == NULL) {
        PyErr_Format(PyExc_TypeError, "%s must be a C-contiguous %s array", name,
                     kinds[0] == 'd' ? "float64" : itemsize == 8 ? "int64"
                     : itemsize == 4 ? "int32" : "bool");
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

/* heapq.heapreplace on a heap of doubles, move for move: the smaller child
 * (the right one unless the left is strictly smaller) climbs until a leaf,
 * then the new item sifts up from there. */
static void
heap_replace(double *heap, Py_ssize_t size, double item)
{
    Py_ssize_t pos = 0;
    Py_ssize_t limit = size >> 1;
    while (pos < limit) {
        Py_ssize_t child = 2 * pos + 1;
        if (child + 1 < size && !(heap[child] < heap[child + 1])) {
            child++;
        }
        heap[pos] = heap[child];
        pos = child;
    }
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (!(item < heap[parent])) {
            break;
        }
        heap[pos] = heap[parent];
        pos = parent;
    }
    heap[pos] = item;
}

PyDoc_STRVAR(walk_doc,
"walk(arrivals, departures, i, free, ring, pos, draws, j, scale, aligned, until, busy)\n"
"-> (i, j, pos, busy)\n\n"
"StationWalk.advance's loop from arrival ``i``; see repro.kernels.walk.");

static PyObject *
walk(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *arrivals_obj, *departures_obj, *free_obj, *ring_obj, *draws_obj;
    Py_ssize_t i, pos, j;
    double scale, until, busy;
    int aligned;
    if (!PyArg_ParseTuple(args, "OOnOOnOndpdd:walk", &arrivals_obj, &departures_obj,
                          &i, &free_obj, &ring_obj, &pos, &draws_obj, &j, &scale,
                          &aligned, &until, &busy)) {
        return NULL;
    }
    Py_buffer views[5];
    int held = 0;
    PyObject *result = NULL;
    if (get_array(arrivals_obj, &views[0], 0, 8, "d", "arrivals") < 0) goto done;
    held++;
    if (get_array(departures_obj, &views[1], 1, 8, "d", "departures") < 0) goto done;
    held++;
    if (get_array(free_obj, &views[2], 1, 8, "d", "free") < 0) goto done;
    held++;
    if (get_array(ring_obj, &views[3], 1, 8, "d", "ring") < 0) goto done;
    held++;
    if (get_array(draws_obj, &views[4], 0, 8, "d", "draws") < 0) goto done;
    held++;

    const double *arrival = views[0].buf;
    double *departure = views[1].buf;
    double *workers = views[2].buf;
    double *ring = views[3].buf;
    const double *draw = views[4].buf;
    Py_ssize_t n = views[0].len / 8;
    Py_ssize_t servers = views[2].len / 8;
    Py_ssize_t lag = views[3].len / 8;
    Py_ssize_t m = views[4].len / 8;
    if (views[1].len / 8 != n || servers < 1 || i < 0 || i > n || j < 0 || j > m
        || pos < 0 || (lag ? pos >= lag : pos != 0) || (aligned && (m != n || j != i))) {
        PyErr_SetString(PyExc_ValueError, "walk: inconsistent array sizes or positions");
        goto done;
    }
    for (; i < n; i++) {
        double a = arrival[i];
        /* The station is full at ``a``: the lag-th latest waiting start is
         * after it (with no queue, every worker frees after it). */
        if ((lag ? ring[pos] : workers[0]) > a) {
            departure[i] = NAN;
            j += aligned;
            continue;
        }
        double start = workers[0];
        int waits = start > a;  /* every worker is busy; then lag > 0 */
        if (waits && start > until) {
            ring[pos] = start;
            pos = pos + 1 == lag ? 0 : pos + 1;
            departure[i] = INFINITY;
            j += aligned;
            continue;
        }
        if (j == m) {
            break;  /* out of unit draws: the caller refills and resumes here */
        }
        if (waits) {
            ring[pos] = start;
            pos = pos + 1 == lag ? 0 : pos + 1;
        } else {
            start = a;
        }
        double service = draw[j++] * scale;
        double leaves = start + service;
        heap_replace(workers, servers, leaves);
        busy += service;
        departure[i] = leaves;
    }
    result = Py_BuildValue("nnnd", i, j, pos, busy);
done:
    while (held > 0) {
        PyBuffer_Release(&views[--held]);
    }
    return result;
}

PyDoc_STRVAR(smooth_wrr_doc,
"smooth_wrr(current, w, total, out, count) -> int | None\n\n"
"``count`` smooth-WRR picks; see repro.kernels.smooth_wrr.");

static PyObject *
smooth_wrr(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *current_obj, *weights_obj, *out_obj;
    double total;
    Py_ssize_t count;
    if (!PyArg_ParseTuple(args, "OOdOn:smooth_wrr", &current_obj, &weights_obj, &total,
                          &out_obj, &count)) {
        return NULL;
    }
    Py_buffer current_view, weights_view, out_view;
    int has_out = out_obj != Py_None;
    if (get_array(current_obj, &current_view, 1, 8, "d", "current") < 0) {
        return NULL;
    }
    if (get_array(weights_obj, &weights_view, 0, 8, "d", "w") < 0) {
        PyBuffer_Release(&current_view);
        return NULL;
    }
    if (has_out && get_array(out_obj, &out_view, 1, 4, "il", "out") < 0) {
        PyBuffer_Release(&weights_view);
        PyBuffer_Release(&current_view);
        return NULL;
    }
    PyObject *result = NULL;
    double *current = current_view.buf;
    const double *w = weights_view.buf;
    Py_ssize_t size = current_view.len / 8;
    if (weights_view.len / 8 != size || count < 0 || (has_out && out_view.len / 4 < count)) {
        PyErr_SetString(PyExc_ValueError, "smooth_wrr: inconsistent array sizes");
        goto done;
    }
    if (size == 0 && count > 0) {
        PyErr_SetString(PyExc_ValueError, "attempt to get argmax of an empty sequence");
        goto done;
    }
    Py_ssize_t best = -1;
    for (Py_ssize_t k = 0; k < count; k++) {
        for (Py_ssize_t q = 0; q < size; q++) {
            current[q] += w[q];
        }
        /* numpy's argmax: the first of equal maxima, or the first NaN. */
        double top = current[0];
        best = 0;
        if (!isnan(top)) {
            for (Py_ssize_t q = 1; q < size; q++) {
                if (!(current[q] <= top)) {
                    top = current[q];
                    best = q;
                    if (isnan(top)) {
                        break;
                    }
                }
            }
        }
        current[best] -= total;
        if (has_out) {
            ((int *)out_view.buf)[k] = (int)best;
        }
    }
    if (best < 0) {
        result = Py_NewRef(Py_None);
    } else {
        result = PyLong_FromSsize_t(best);
    }
done:
    if (has_out) {
        PyBuffer_Release(&out_view);
    }
    PyBuffer_Release(&weights_view);
    PyBuffer_Release(&current_view);
    return result;
}

PyDoc_STRVAR(station_stats_doc,
"station_stats(arrivals, admitted, departures, servers, until)\n"
"-> (busy_time_s, busy_worker_seconds)\n\n"
"A station's busy integrals from its events; see repro.kernels.station_stats.");

static PyObject *
station_stats(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *arrivals_obj, *admitted_obj, *departures_obj;
    Py_ssize_t servers;
    double until;
    if (!PyArg_ParseTuple(args, "OOOnd:station_stats", &arrivals_obj, &admitted_obj,
                          &departures_obj, &servers, &until)) {
        return NULL;
    }
    Py_buffer views[3];
    int held = 0;
    PyObject *result = NULL;
    if (get_array(arrivals_obj, &views[0], 0, 8, "d", "arrivals") < 0) goto done;
    held++;
    if (get_array(admitted_obj, &views[1], 0, 1, "?", "admitted") < 0) goto done;
    held++;
    if (get_array(departures_obj, &views[2], 0, 8, "d", "departures") < 0) goto done;
    held++;

    const double *arrival = views[0].buf;
    const unsigned char *admitted = views[1].buf;
    const double *departure = views[2].buf;
    Py_ssize_t n = views[0].len / 8;
    Py_ssize_t m = views[2].len / 8;
    if (views[1].len != n) {
        PyErr_SetString(PyExc_ValueError, "station_stats: admitted must align with arrivals");
        goto done;
    }
    /* One merge of three sorted runs — the departures, the arrivals and the
     * close at ``until`` (none when it is infinite) — taking a departure
     * before an arrival before the close at equal times, as a stable sort of
     * their concatenation orders them.  At each event, ``elapsed`` since the
     * last one is weighted by the population just before it; both sums run
     * left to right from the first term (-0.0 is the identity of +), as
     * cumsum adds. */
    int open = until < INFINITY;
    Py_ssize_t i = 0, k = 0;
    long long holding = 0;
    double last = 0.0, busy = -0.0, worker = -0.0;
    while (i < n || k < m || open) {
        double t;
        int step;
        if (k < m && (i == n || departure[k] <= arrival[i]) && (!open || departure[k] <= until)) {
            t = departure[k++];
            step = -1;
        } else if (i < n && (!open || arrival[i] <= until)) {
            t = arrival[i];
            step = admitted[i++] != 0;
        } else {
            t = until;
            step = 0;
            open = 0;
        }
        double elapsed = t - last;
        last = t;
        worker += (double)(holding < servers ? holding : servers) * elapsed;
        busy += elapsed * (holding > 0 ? 1.0 : 0.0);
        holding += step;
    }
    if (n + m == 0 && !(until < INFINITY)) {
        busy = worker = 0.0;  /* no event: nothing to integrate */
    }
    result = Py_BuildValue("dd", busy, worker);
done:
    while (held > 0) {
        PyBuffer_Release(&views[--held]);
    }
    return result;
}

PyDoc_STRVAR(band_dp_doc,
"band_dp(units, latencies, k, lo, hi, selection) -> bool\n\n"
"The dp backend's band DP and backtrack; see repro.kernels.py_band_dp.");

static PyObject *
band_dp(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *units_obj, *latencies_obj, *selection_obj;
    Py_ssize_t k, lo, hi;
    if (!PyArg_ParseTuple(args, "OOnnnO:band_dp", &units_obj, &latencies_obj, &k, &lo, &hi,
                          &selection_obj)) {
        return NULL;
    }
    Py_buffer views[3];
    int held = 0;
    PyObject *result = NULL;
    Py_ssize_t *bands = NULL;
    double *cells = NULL;
    if (get_array(units_obj, &views[0], 0, 8, "lq", "units") < 0) goto done;
    held++;
    if (get_array(latencies_obj, &views[1], 0, 8, "d", "latencies") < 0) goto done;
    held++;
    if (get_array(selection_obj, &views[2], 1, 8, "lq", "selection") < 0) goto done;
    held++;

    const long long *units = views[0].buf;
    const double *latency = views[1].buf;
    long long *selection = views[2].buf;
    Py_ssize_t size = views[0].len / 8;
    Py_ssize_t n = k > 0 ? size / k : 0;
    if (n < 1 || n * k != size || views[1].len / 8 != size || views[2].len / 8 != n || lo < 0
        || hi < lo) {
        PyErr_SetString(PyExc_ValueError, "band_dp: inconsistent array sizes or window");
        goto done;
    }
    for (Py_ssize_t q = 0; q < size; q++) {
        if (units[q] < 0 || !(latency[q] >= 0.0 && latency[q] < INFINITY)) {
            PyErr_SetString(PyExc_ValueError,
                            "band_dp: units must be >= 0 and latencies finite and >= 0");
            goto done;
        }
    }
    if (hi > PY_SSIZE_T_MAX / 8 / (n + 1)) {
        PyErr_NoMemory();  /* no table of that many cells fits */
        goto done;
    }
    bands = PyMem_Malloc(3 * n * sizeof(Py_ssize_t));
    if (bands == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    Py_ssize_t *band_lo = bands, *band_hi = bands + n, *offset = bands + 2 * n;

    /* _bands: the min and max of each DIP's candidates that fit (<= hi) bound
     * the sums reachable after it and those that can still end in [lo, hi];
     * a DIP with no candidate that fits empties every band. */
    Py_ssize_t after_min = 0, after_max = 0;
    int fits = 1;
    for (Py_ssize_t i = 0; i < n && fits; i++) {
        Py_ssize_t least = -1, most = -1;
        for (Py_ssize_t j = 0; j < k; j++) {
            if (units[i * k + j] <= hi) {
                Py_ssize_t u = (Py_ssize_t)units[i * k + j];
                least = least < 0 || u < least ? u : least;
                most = u > most ? u : most;
            }
        }
        fits = most >= 0;
        band_lo[i] = least;  /* the DIP's min and max, until the bands replace them */
        band_hi[i] = most;
        after_min += least;
        after_max += most;
    }
    Py_ssize_t before_min = 0, before_max = 0, total = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        if (!fits) {
            band_lo[i] = 0;
            band_hi[i] = -1;
        } else {
            Py_ssize_t least = band_lo[i], most = band_hi[i];
            before_min += least;
            after_min -= least;
            before_max += most;
            after_max -= most;
            band_lo[i] = before_min > lo - after_max ? before_min : lo - after_max;
            band_lo[i] = band_lo[i] > 0 ? band_lo[i] : 0;
            band_hi[i] = before_max < hi - after_min ? before_max : hi - after_min;
        }
        offset[i] = total;
        total += band_hi[i] >= band_lo[i] ? band_hi[i] - band_lo[i] + 1 : 0;
    }
    cells = PyMem_Malloc((total > 0 ? total : 1) * sizeof(double));
    if (cells == NULL) {
        PyErr_NoMemory();
        goto done;
    }

    /* Band i's cell u - band_lo[i] is the least latency that reaches exactly
     * u units with DIPs 0..i: per candidate in order, its source cell plus
     * its latency, kept by np.minimum's rule (the new value unless the cell
     * is smaller; with latencies finite and >= 0 no cell is NaN or -0.0).
     * Before the first DIP only 0 is reached, at 0. */
    const double zero = 0.0;
    const double *cost = &zero;
    Py_ssize_t prev_lo = 0, prev_hi = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        Py_ssize_t low = band_lo[i], high = band_hi[i];
        double *next = cells + offset[i];
        for (Py_ssize_t u = low; u <= high; u++) {
            next[u - low] = INFINITY;
        }
        for (Py_ssize_t j = 0; j < k; j++) {
            if (units[i * k + j] > hi) {
                continue;  /* never fits */
            }
            Py_ssize_t step = (Py_ssize_t)units[i * k + j];
            double lat = latency[i * k + j];
            Py_ssize_t first = prev_lo + step > low ? prev_lo + step : low;
            Py_ssize_t last = prev_hi + step < high ? prev_hi + step : high;
            if (first > last) {
                continue;
            }
            const double *from = cost + (first - step - prev_lo);
            double *into = next + (first - low);
            for (Py_ssize_t q = 0; q <= last - first; q++) {
                double value = from[q] + lat;
                into[q] = into[q] < value ? into[q] : value;
            }
        }
        cost = next;
        prev_lo = low;
        prev_hi = high;
    }

    /* The last band is the window cut to the reachable sums: infeasible
     * without a finite cell, else backtrack from its first cheapest one. */
    Py_ssize_t width = prev_hi >= prev_lo ? prev_hi - prev_lo + 1 : 0;
    Py_ssize_t best = -1;
    for (Py_ssize_t u = 0; u < width; u++) {
        if (cost[u] < INFINITY && (best < 0 || cost[u] < cost[best])) {
            best = u;
        }
    }
    if (best < 0) {
        result = Py_NewRef(Py_False);
        goto done;
    }
    /* Per DIP, the first candidate whose source cell plus its latency is the
     * cell's value: the one that set it, as every later one can only tie. */
    Py_ssize_t reached = prev_lo + best;
    for (Py_ssize_t i = n - 1; i >= 0; i--) {
        double target = cells[offset[i] + reached - band_lo[i]];
        const double *before = i ? cells + offset[i - 1] : &zero;
        Py_ssize_t low = i ? band_lo[i - 1] : 0, high = i ? band_hi[i - 1] : 0;
        Py_ssize_t j = 0;
        long long source = 0;
        for (; j < k; j++) {
            source = reached - units[i * k + j];
            if (low <= source && source <= high
                && before[source - low] + latency[i * k + j] == target) {
                break;
            }
        }
        if (j == k) {  /* unreachable: a finite cell has a finite source */
            PyErr_SetString(PyExc_RuntimeError, "band_dp: a cell without a source");
            goto done;
        }
        selection[i] = j;
        reached = (Py_ssize_t)source;
    }
    result = Py_NewRef(Py_True);
done:
    PyMem_Free(cells);
    PyMem_Free(bands);
    while (held > 0) {
        PyBuffer_Release(&views[--held]);
    }
    return result;
}

/* np.maximum(a, b) on one element: a NaN on either side, else the larger,
 * b on a tie. */
static inline double
np_maximum(double a, double b)
{
    return (a > b || isnan(a)) ? a : b;
}

/* _horner: np.polyval of one zero-padded row at x, from +0. */
static inline double
horner(const double *coefficients, Py_ssize_t width, double x)
{
    double y = 0.0;
    for (Py_ssize_t j = 0; j < width; j++) {
        y = y * x + coefficients[j];
    }
    return y;
}

/* _Bank.predict for one weight of one row: the polynomial at w / scale,
 * the monotone envelope (the constant term; past a concave vertex, its
 * peak; above degree 2 the max of a 64-point scan of [0, w]) and the l0
 * floor. */
static double
bank_predict(const double *row, Py_ssize_t width, int monotone, double vertex, double peak,
             int scanned, double w)
{
    double scale = row[width];
    double value = horner(row, width, w / scale);
    if (monotone) {
        value = np_maximum(row[width - 1], value);
    }
    if (vertex < w) {
        value = np_maximum(value, peak);
    }
    if (scanned) {
        /* np.linspace(0.0, w, 64): point p is p * (w / 63), or p / 63 * w
         * where that step underflows to 0, and the last is w itself. */
        double step = w / 63;
        double top = 0.0;
        for (int p = 0; p < 64; p++) {
            double x = p == 63 ? w : (step == 0 ? (p / 63.0) * w : p * step) + 0.0;
            double envelope = horner(row, width, x / scale);
            /* the row's max: NaN if any point is NaN */
            top = p == 0 || isnan(envelope) || (!isnan(top) && envelope > top) ? envelope : top;
        }
        value = np_maximum(value, top);
    }
    return np_maximum(row[width + 1], value);
}

PyDoc_STRVAR(bisect_bank_doc,
"bisect_bank(table, width, monotone, vertex, peak, scanned, targets, uppers, tol, out)\n\n"
"Per curve of a bank, the smallest weight whose prediction reaches its target;\n"
"see repro.core.curve.weights_for_latencies.");

static PyObject *
bisect_bank(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *objs[8];
    Py_ssize_t width;
    double tol;
    if (!PyArg_ParseTuple(args, "OnOOOOOOdO:bisect_bank", &objs[0], &width, &objs[1], &objs[2],
                          &objs[3], &objs[4], &objs[5], &objs[6], &tol, &objs[7])) {
        return NULL;
    }
    static const char *names[8] = {"table", "monotone", "vertex", "peak", "scanned",
                                   "targets", "uppers", "out"};
    static const char *kinds[8] = {"d", "?", "d", "d", "?", "d", "d", "d"};
    Py_buffer views[8];
    int held = 0;
    PyObject *result = NULL;
    for (; held < 8; held++) {
        int flag = kinds[held][0] == '?';
        if (get_array(objs[held], &views[held], held == 7, flag ? 1 : 8, kinds[held],
                      names[held]) < 0) {
            goto done;
        }
    }
    Py_ssize_t rows = views[7].len / 8;
    for (int q = 1; q < 8; q++) {
        if (views[q].len / views[q].itemsize != rows) {
            PyErr_SetString(PyExc_ValueError, "bisect_bank: the rows do not align");
            goto done;
        }
    }
    Py_ssize_t cells = views[0].len / 8;
    if (width < 1 || (rows ? cells % rows || cells / rows - 2 != width : cells != 0)) {
        PyErr_SetString(PyExc_ValueError, "bisect_bank: table is not rows x (width + 2)");
        goto done;
    }
    const double *table = views[0].buf;
    const unsigned char *monotone = views[1].buf, *scanned = views[4].buf;
    const double *vertex = views[2].buf, *peak = views[3].buf;
    const double *targets = views[5].buf, *uppers = views[6].buf;
    double *out = views[7].buf;
    for (Py_ssize_t r = 0; r < rows; r++) {
        const double *row = table + r * (width + 2);
#define PREDICT(w) bank_predict(row, width, monotone[r], vertex[r], peak[r], scanned[r], (w))
        double target = targets[r], upper = uppers[r];
        if (target <= PREDICT(0.0)) {
            out[r] = 0.0;
            continue;
        }
        if (PREDICT(upper) < target) {
            out[r] = upper;
            continue;
        }
        double lo = 0.0, hi = upper;
        for (int halving = 0; halving < 200; halving++) {
            double mid = (lo + hi) / 2.0;
            if (PREDICT(mid) >= target) {
                hi = mid;
            } else {
                lo = mid;
            }
            if (hi - lo < tol) {
                break;
            }
        }
#undef PREDICT
        out[r] = hi;
    }
    result = Py_NewRef(Py_None);
done:
    while (held > 0) {
        PyBuffer_Release(&views[--held]);
    }
    return result;
}

/* A scratch array that grows to what a stage needs. */
typedef struct {
    void *items;
    Py_ssize_t capacity;
} Scratch;

static int
reserve(Scratch *scratch, Py_ssize_t count, size_t size)
{
    if (count <= scratch->capacity) {
        return 0;
    }
    Py_ssize_t want = scratch->capacity * 2 > count ? scratch->capacity * 2 : count;
    if ((size_t)want > (size_t)PY_SSIZE_T_MAX / size) {
        PyErr_NoMemory();
        return -1;
    }
    void *grown = PyMem_Realloc(scratch->items, want * size);
    if (grown == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    scratch->items = grown;
    scratch->capacity = want;
    return 0;
}

/* Sort idx[0..m) stably by key[idx[.]] ascending, as a stable argsort
 * orders them (no key is NaN): the maximal ascending runs, merged pairwise
 * (the left element first on ties) until one is left.  ``tmp`` has room for
 * m indices and ``runs`` for m + 1. */
static void
stable_sort(Py_ssize_t *idx, Py_ssize_t m, const double *key, Py_ssize_t *tmp, Py_ssize_t *runs)
{
    Py_ssize_t count = 0;
    runs[count++] = 0;
    for (Py_ssize_t q = 1; q < m; q++) {
        if (key[idx[q]] < key[idx[q - 1]]) {
            runs[count++] = q;
        }
    }
    runs[count] = m;
    Py_ssize_t *from = idx, *into = tmp;
    while (count > 1) {
        Py_ssize_t merged = 0;
        for (Py_ssize_t r = 0; r < count; r += 2) {
            Py_ssize_t a = runs[r], mid = runs[r + 1];
            Py_ssize_t end = r + 2 <= count ? runs[r + 2] : mid;
            Py_ssize_t i = a, j = mid, out = a;
            while (i < mid && j < end) {
                into[out++] = key[from[j]] < key[from[i]] ? from[j++] : from[i++];
            }
            while (i < mid) {
                into[out++] = from[i++];
            }
            while (j < end) {
                into[out++] = from[j++];
            }
            runs[merged++] = a;
        }
        runs[merged] = m;
        count = merged;
        Py_ssize_t *swap = from;
        from = into;
        into = swap;
    }
    if (from != idx) {
        memcpy(idx, from, m * sizeof(Py_ssize_t));
    }
}

/* The last knot j with xs[j] <= x, given xs[0] <= x <= xs[count - 1] and
 * xs[count] = +inf: a walk forward from ``*hint`` (left there), or a
 * binary search where the hint is past x. */
static inline Py_ssize_t
locate(double x, const double *xs, Py_ssize_t count, Py_ssize_t *hint)
{
    Py_ssize_t j = *hint;
    if (j < 0 || !(xs[j] <= x)) {
        Py_ssize_t low = 0, high = count;  /* the first knot past x */
        while (low < high) {
            Py_ssize_t mid = low + ((high - low) >> 1);
            if (x >= xs[mid]) {
                low = mid + 1;
            } else {
                high = mid;
            }
        }
        j = low - 1;
    }
    while (xs[j + 1] <= x) {
        j++;
    }
    *hint = j;
    return j;
}

/* np.interp(x, xs, ys, right=inf) by numpy's rule: left of the first knot
 * ys[0]; past the last inf; on a knot, its value; else the slope from the
 * last knot j <= x, retried from j + 1 where that is NaN (and ys[j] where
 * both are NaN and the two values are equal).  xs[count] must be +inf.
 * Within a column block x ascends, so ``*hint`` (the j of the last call)
 * finds numpy's j by a short walk. */
static inline double
interp(double x, const double *xs, const double *ys, const double *slopes, Py_ssize_t count,
       Py_ssize_t *hint)
{
    if (isnan(x)) {
        return x;
    }
    if (x > xs[count - 1]) {
        return INFINITY;
    }
    if (x < xs[0]) {
        return ys[0];
    }
    Py_ssize_t j = locate(x, xs, count, hint);
    if (j == count - 1 || xs[j] == x) {
        return ys[j];
    }
    double value = slopes[j] * (x - xs[j]) + ys[j];
    if (isnan(value)) {
        value = slopes[j] * (x - xs[j + 1]) + ys[j + 1];
        if (isnan(value) && ys[j] == ys[j + 1]) {
            value = ys[j];
        }
    }
    return value;
}

/* A candidate state of the expanding core: state ``parent`` of the last
 * stage moved to column ``col_of[column]`` of this stage's DIP. */
typedef struct {
    double w, c;
    int column, parent;
} State;

/* Merge the descending runs of states[0..m) into one, heaviest first and
 * the earlier state first among equal weights: what a stable argsort of
 * -w gives.  Pairwise, each merge from both ends at once (the front takes
 * the heavier state, the left one on ties; the back the lighter, the right
 * one on ties): two independent branch-free chains.  ``states`` and
 * ``tmp`` hold m states and may be read one past either end; ``runs`` has
 * room for m + 1 indices.  Returns the buffer that holds the result. */
static State *
merge_heaviest_first(State *states, Py_ssize_t m, State *tmp, Py_ssize_t *runs)
{
    Py_ssize_t count = 0;
    runs[count++] = 0;
    for (Py_ssize_t q = 1; q < m; q++) {
        if (states[q].w > states[q - 1].w) {
            runs[count++] = q;
        }
    }
    runs[count] = m;
    State *from = states, *into = tmp;
    while (count > 1) {
        Py_ssize_t merged = 0;
        for (Py_ssize_t r = 0; r < count; r += 2) {
            Py_ssize_t a = runs[r], mid = runs[r + 1];
            Py_ssize_t end = r + 2 <= count ? runs[r + 2] : mid;
            runs[merged++] = a;
            if (mid == end) {
                memcpy(into + a, from + a, (end - a) * sizeof(State));
                continue;
            }
            /* (the cursors may read one state past either end of a run:
             * both buffers have a slot before index 0 and after m - 1) */
            Py_ssize_t i = a, j = mid, ib = mid - 1, jb = end - 1, out = a, back = end - 1;
            for (Py_ssize_t half = (end - a) / 2; half > 0; half--) {
                int later = (j < end) & ((i >= mid) | (from[j].w > from[i].w));
                into[out++] = from[later ? j : i];
                j += later;
                i += !later;
                int sooner = (ib >= a) & ((jb < mid) | (from[ib].w < from[jb].w));
                into[back--] = from[sooner ? ib : jb];
                ib -= sooner;
                jb -= !sooner;
            }
            if ((end - a) & 1) {
                int later = (j < end) & ((i >= mid) | (from[j].w > from[i].w));
                into[out] = from[later ? j : i];
            }
        }
        runs[merged] = m;
        count = merged;
        State *swap = from;
        from = into;
        into = swap;
    }
    return from;
}

/* The one-sided program's merge.  A state that a strictly heavier state
 * costs no more than is never marked: its cost bucket is never lower, at
 * any bucket width.  A merge can drop it as soon as that heavier state is
 * in the same run, and it can settle exact-weight ties at once (the
 * cheapest, the left one of equally cheap ones), since the runs it merges
 * are adjacent.  What is left of the last run is the tie representatives
 * the thinning marks, less states it would not mark and that lower no
 * bucket minimum.  A "staircase" is a run of strictly falling weights and
 * strictly falling costs. */

/* Make each block of states[0..m) (in block order, weights not rising
 * within one) a staircase, packed in place: a state stays if it is cheaper
 * than every heavier one of its block, and of an exact-weight tie the
 * cheapest (the first of equally cheap ones).  Run r is then
 * states[starts[r]:starts[r + 1]].  Returns the number of runs. */
static Py_ssize_t
staircases(State *states, Py_ssize_t m, Py_ssize_t *starts)
{
    Py_ssize_t runs = 0, out = -1;
    int column = -1;
    double last_w = 0.0, last_c = 0.0;
    for (Py_ssize_t q = 0; q < m; q++) {
        State next = states[q];
        int fresh = next.column != column;
        if (fresh) {
            starts[runs++] = out + 1;
            column = next.column;
        }
        int tie = !fresh && next.w == last_w;
        int better = fresh || next.c < last_c;
        if (better) {
            out += !tie;
            states[out] = next;
            last_w = next.w;
            last_c = next.c;
        }
    }
    starts[runs] = out + 1;
    return runs;
}

/* ``yes ? b : a`` on pointers by a mask: a compiler branches on such a
 * select, and here the outcome is data, about as often one as the other. */
static inline const State *
pick_state(int yes, const State *a, const State *b)
{
    uintptr_t mask = (uintptr_t)0 - (uintptr_t)(yes != 0);
    return (const State *)(((uintptr_t)a & ~mask) | ((uintptr_t)b & mask));
}

/* Merge the staircases a[0..na) and b[0..nb) (a the left run) into the
 * staircase of their union at out[0..); returns its length.  A state is
 * kept if it is cheaper than the lightest state of the other run that is
 * strictly heavier; of a tie the cheaper state, a's if equal.  From both
 * ends at once while four states are left (two chains; they never meet on
 * one group), then from the front; the back's states are moved up after.
 * a[-1], a[na], b[-1] and b[nb] must be readable. */
static Py_ssize_t
merge_staircases(const State *a, Py_ssize_t na, const State *b, Py_ssize_t nb, State *out)
{
    Py_ssize_t i = 0, j = 0, ib = na - 1, jb = nb - 1, front = 0, back = na + nb - 1;
    double front_c = INFINITY;  /* the least cost the front has passed */
    /* Branch-free steps: comparisons combine as ints, states are picked by
     * pointer, and a run's cursor past its end reads a neighbouring slot
     * whose value no outcome depends on. */
#define FRONT_STEP()                                                                          \
    do {                                                                                      \
        int has_a = i <= ib, has_b = j <= jb;                                                \
        int take_a = has_a & (!has_b | (a[i].w >= b[j].w));                                  \
        int take_b = has_b & (!has_a | (b[j].w >= a[i].w));                                  \
        int use_b = take_b & (!take_a | (b[j].c < a[i].c));                                  \
        const State *pick = pick_state(use_b, a + i, b + j);                                 \
        double cost = pick->c;                                                               \
        out[front] = *pick;                                                                  \
        front += (front == 0) | (cost < front_c);                                            \
        front_c = cost < front_c ? cost : front_c;                                           \
        i += take_a;                                                                         \
        j += take_b;                                                                         \
    } while (0)
    while ((ib - i) + (jb - j) >= 2) {  /* four states or more are left */
        FRONT_STEP();
        int has_a = ib >= i, has_b = jb >= j;
        int take_a = has_a & (!has_b | (a[ib].w <= b[jb].w));
        int take_b = has_b & (!has_a | (b[jb].w <= a[ib].w));
        int use_b = take_b & (!take_a | (b[jb].c < a[ib].c));
        const State *pick = pick_state(use_b, a + ib, b + jb);
        const State *other = pick_state(use_b, b + jb, a + ib);
        /* the other run's lightest strictly heavier state: its tail, if any
         * (after a tie each run's next heavier state is dearer) */
        int bar = (use_b & (ib >= 0)) | (!use_b & (jb >= 0));
        out[back] = *pick;
        back -= (take_a & take_b) | !bar | (pick->c < other->c);
        ib -= take_a;
        jb -= take_b;
    }
    while ((i <= ib) | (j <= jb)) {
        FRONT_STEP();
    }
#undef FRONT_STEP
    Py_ssize_t tail = na + nb - 1 - back;
    memmove(out + front, out + back + 1, tail * sizeof(State));
    return front + tail;
}

/* The expanding core's scratch, kept by the module between calls: a
 * cold convergence makes hundreds of calls of a few MiB each, and fresh
 * pages cost more than the arithmetic.  ``busy`` marks it taken (a call
 * the clock re-enters gets a scratch of its own). */
typedef struct {
    int busy;
    Scratch cols, knots, links, trial, offset, w, c, nw, nc, cand, spare, runs, blocks, flag,
        rank, key, parent, item;
} CoreScratch;

static void
release_core_scratch(CoreScratch *pool)
{
    Scratch *all[] = {&pool->cols, &pool->knots, &pool->links, &pool->trial, &pool->offset,
                      &pool->w, &pool->c, &pool->nw, &pool->nc, &pool->cand, &pool->spare,
                      &pool->runs, &pool->blocks, &pool->flag, &pool->rank, &pool->key,
                      &pool->parent, &pool->item};
    for (size_t q = 0; q < sizeof(all) / sizeof(all[0]); q++) {
        PyMem_Free(all[q]->items);
        all[q]->items = NULL;
        all[q]->capacity = 0;
    }
}

/* A stage's LP completion: np.interp's knots (xs[count] an infinite
 * sentinel) and whether numpy's one-knot rule applies. */
typedef struct {
    const double *xs, *ys, *slopes;
    Py_ssize_t count;
    int single;
    double lo;
} Knots;

/* The LP completion bound of a state of weight w and cost c. */
static inline double
completion(const Knots *knots, double w, double c, Py_ssize_t *hint)
{
    double x = knots->lo - w;
    if (knots->single) {
        return c + (x > 0.0 ? INFINITY : 0.0);
    }
    return c + interp(x, knots->xs, knots->ys, knots->slopes, knots->count, hint);
}

/* A value no completion at weight w or lighter falls below, given knot
 * values that do not fall: past the last knot inf; left of the first
 * ys[0]; else the value at the last knot j <= x (the interpolation from it
 * adds a product of two non-negative factors). */
static inline double
least_completion(const Knots *knots, double w, Py_ssize_t *hint)
{
    double x = knots->lo - w;
    if (knots->single) {
        return x > 0.0 ? INFINITY : 0.0;
    }
    const double *xs = knots->xs;
    if (!(x >= xs[0])) {
        return knots->ys[0];
    }
    if (x > xs[knots->count - 1]) {
        return INFINITY;
    }
    return knots->ys[locate(x, xs, knots->count, hint)];
}

/* Candidates the skip below judges together. */
#define CHUNK 16

/* Block ``column`` of a stage's candidates, written from ``out``: state p
 * of the last stage moved by (step_w, step_c), written in p order and kept
 * (the count returned) if its bound is under ``limit`` and, less the weight
 * the later DIPs can shed, it is not past ``most_w``.  With ``sorted``
 * (state costs that do not rise with p, knot values that do not fall) a
 * chunk whose last cost plus the least completion at its first weight
 * already reaches ``limit`` keeps nothing, by monotone rounding, and is
 * passed over. */
static Py_ssize_t
gather_block(const Knots *knots, int sorted, double step_w, double step_c, const double *sw,
             const double *sc, Py_ssize_t m, int column, double limit, double reach,
             double most_w, State *out)
{
    Knots local = *knots;  /* a copy the stores to ``out`` cannot alias */
    Py_ssize_t kept = 0, hint = -1;
    for (Py_ssize_t p0 = 0; p0 < m; p0 += CHUNK) {
        Py_ssize_t p1 = p0 + CHUNK < m ? p0 + CHUNK : m;
        if (sorted && step_c + sc[p1 - 1] + least_completion(&local, step_w + sw[p0], &hint)
                          >= limit) {
            continue;
        }
        for (Py_ssize_t p = p0; p < p1; p++) {
            State next = {step_w + sw[p], step_c + sc[p], column, (int)p};
            out[kept] = next;
            kept += (completion(&local, next.w, next.c, &hint) < limit)
                    & (next.w - reach <= most_w);
        }
    }
    return kept;
}

PyDoc_STRVAR(expand_core_doc,
"expand_core(dW, dC, usable, base, order, edge_stage, edge_dw, edge_dc, taken, shed_after,\n"
"            w0, c0, lo, hi, slack, deadline, incumbent, bucket, band, gap, budget, selection)\n"
"-> (found, lower, states, cut)\n\n"
"Every stage of the mckp backend's expanding-core DP; see\n"
"repro.solver.mckp._expand_core.");

static PyObject *
expand_core(PyObject *module, PyObject *args)
{
    PyObject *objs[11];
    PyObject *deadline_obj, *bucket_obj, *band_obj;
    Py_ssize_t taken, budget;
    double w0, c0, lo, hi, slack, incumbent, gap, band_lo = 0.0, band_hi = 0.0;
    if (!PyArg_ParseTuple(args, "OOOOOOOOnOdddddOdOOdnO:expand_core", &objs[0], &objs[1],
                          &objs[2], &objs[3], &objs[4], &objs[5], &objs[6], &objs[7], &taken,
                          &objs[8], &w0, &c0, &lo, &hi, &slack, &deadline_obj, &incumbent,
                          &bucket_obj, &band_obj, &gap, &budget, &objs[9])) {
        return NULL;
    }
    int banded = bucket_obj == Py_None;  /* the band program: equal weights merge */
    double bucket = banded ? 0.0 : PyFloat_AsDouble(bucket_obj);
    double deadline = deadline_obj == Py_None ? 0.0 : PyFloat_AsDouble(deadline_obj);
    if (PyErr_Occurred()) {
        return NULL;
    }
    int checked = band_obj != Py_None;  /* selections must pass the exact band sum */
    if (checked && !(PyTuple_Check(band_obj) && PyTuple_GET_SIZE(band_obj) == 3)) {
        PyErr_SetString(PyExc_TypeError, "expand_core: band must be (weights, lo, hi)");
        return NULL;
    }
    if (checked && !PyArg_ParseTuple(band_obj, "Odd:expand_core", &objs[10], &band_lo, &band_hi)) {
        return NULL;
    }
    static const char *names[11] = {"dW", "dC", "usable", "base", "order", "edge_stage",
                                    "edge_dw", "edge_dc", "shed_after", "selection",
                                    "band weights"};
    static const char *kinds[11] = {"d", "d", "?", "lq", "lq", "lq", "d", "d", "d", "lq", "d"};
    Py_buffer views[11];
    int held = 0;
    PyObject *result = NULL, *clock = NULL;
    CoreScratch *shared = PyModule_GetState(module), own = {0};
    CoreScratch *pool = shared->busy ? &own : shared;
    pool->busy = 1;
    for (; held < (checked ? 11 : 10); held++) {
        if (get_array(objs[held], &views[held], held == 9, kinds[held][0] == '?' ? 1 : 8,
                      kinds[held], names[held]) < 0) {
            goto done;
        }
    }
    const double *dW = views[0].buf, *dC = views[1].buf;
    const unsigned char *usable = views[2].buf;
    const long long *base = views[3].buf, *order = views[4].buf, *edge_stage = views[5].buf;
    const double *edge_dw = views[6].buf, *edge_dc = views[7].buf, *shed_after = views[8].buf;
    long long *selection = views[9].buf;
    const double *band_w = checked ? views[10].buf : NULL;
    Py_ssize_t n = views[3].len / 8, size = views[0].len / 8, edges = views[5].len / 8;
    Py_ssize_t k = n > 0 ? size / n : 0;
    int valid = n > 0 && k > 0 && k <= INT_MAX && n * k == size && views[1].len / 8 == size
                && views[2].len == size && views[4].len / 8 == n && views[8].len / 8 == n
                && views[9].len / 8 == n && views[6].len / 8 == edges
                && views[7].len / 8 == edges && taken >= 0 && taken <= edges && budget >= 1
                && budget <= INT_MAX && (!checked || views[10].len / 8 == size);
    for (Py_ssize_t q = 0; valid && q < n; q++) {
        valid = base[q] >= 0 && base[q] < k && order[q] >= 0 && order[q] < n;
    }
    if (!valid) {
        PyErr_SetString(PyExc_ValueError, "expand_core: inconsistent array sizes or indices");
        goto done;
    }
    if (deadline_obj != Py_None) {
        PyObject *time_module = PyImport_ImportModule("time");
        if (time_module == NULL) {
            goto done;
        }
        clock = PyObject_GetAttrString(time_module, "perf_counter");
        Py_DECREF(time_module);
        if (clock == NULL) {
            goto done;
        }
    }
    if (reserve(&pool->cols, k, sizeof(Py_ssize_t)) < 0
        || reserve(&pool->knots, 5 * edges + 4, sizeof(double)) < 0
        || reserve(&pool->links, 3 * edges + 2 * n + 1, sizeof(Py_ssize_t)) < 0
        || reserve(&pool->trial, n, sizeof(Py_ssize_t)) < 0
        || reserve(&pool->offset, n, sizeof(Py_ssize_t)) < 0
        || reserve(&pool->w, 1, sizeof(double)) < 0 || reserve(&pool->c, 1, sizeof(double)) < 0) {
        goto done;
    }
    Py_ssize_t *col_of = pool->cols.items, *sel = pool->trial.items;
    Py_ssize_t *first_of = pool->offset.items;
    /* Knots fill out from the LP point, up to ``edges`` each way (and a
     * sentinel past the last). */
    double *knot_x = pool->knots.items, *knot_y = knot_x + 2 * edges + 2;
    double *slopes = knot_y + 2 * edges + 1;
    /* The edges outside the core, as two doubly linked lists walked from the
     * LP point outward: the left edges by descending index (steepest
     * first), the right edges by ascending index; -1 ends a list.  A stage
     * unlinks the edges of its DIP: entering[entered[s]:entered[s + 1]]. */
    Py_ssize_t *after = pool->links.items, *before = after + edges, *entering = before + edges;
    Py_ssize_t *entered = entering + edges, *fill = entered + n + 1;
    Py_ssize_t heads[2] = {-1, -1};
    for (Py_ssize_t q = 0; q <= n; q++) {
        entered[q] = 0;
    }
    for (Py_ssize_t e = 0; e < edges; e++) {
        if (edge_stage[e] >= 0 && edge_stage[e] < n) {
            entered[edge_stage[e] + 1]++;
        }
    }
    for (Py_ssize_t q = 0; q < n; q++) {
        entered[q + 1] += entered[q];
        fill[q] = entered[q];
    }
    for (Py_ssize_t e = 0; e < edges; e++) {
        after[e] = before[e] = -1;
        if (edge_stage[e] >= 0 && edge_stage[e] < n) {
            entering[fill[edge_stage[e]]++] = e;
        }
    }
    for (int side = 0; side < 2; side++) {
        Py_ssize_t last = -1;
        for (Py_ssize_t q = 0; q < (side ? edges - taken : taken); q++) {
            Py_ssize_t e = side ? taken + q : taken - 1 - q;
            if (edge_stage[e] < 0) {
                continue;  /* never outside the core */
            }
            before[e] = last;
            if (last < 0) {
                heads[side] = e;
            } else {
                after[last] = e;
            }
            last = e;
        }
    }
    ((double *)pool->w.items)[0] = w0;
    ((double *)pool->c.items)[0] = c0;

    const double factor = 1.0 - gap / 2.0;
    const double least_w = lo - slack, most_w = hi + slack;
    double best_cost = incumbent, dropped = INFINITY, loss = 0.0;
    Py_ssize_t m = 1, states = 0, stored = 0;
    int found = 0, cut = 0;
    for (Py_ssize_t s = 0; s < n; s++) {
        if (clock != NULL) {
            PyObject *now = PyObject_CallNoArgs(clock);
            if (now == NULL) {
                goto done;
            }
            double t = PyFloat_AsDouble(now);
            Py_DECREF(now);
            if (t == -1.0 && PyErr_Occurred()) {
                goto done;
            }
            if (t > deadline) {
                cut = 1;
                break;
            }
        }
        Py_ssize_t d = (Py_ssize_t)order[s], ncols = 0;
        double least_step = INFINITY, most_step = -INFINITY;
        for (Py_ssize_t col = 0; col < k; col++) {
            if (usable[d * k + col]) {
                col_of[ncols++] = col;
                double step = dW[d * k + col];
                least_step = step < least_step ? step : least_step;
                most_step = step > most_step ? step : most_step;
            }
        }
        for (Py_ssize_t q = entered[s]; q < entered[s + 1]; q++) {
            Py_ssize_t e = entering[q];
            if (before[e] < 0) {
                heads[e >= taken] = after[e];
            } else {
                after[before[e]] = after[e];
            }
            if (after[e] >= 0) {
                before[after[e]] = before[e];
            }
        }
        Py_ssize_t count = ncols * m;
        /* (a slot before the first state and one past the last: the kept
         * ones are written, and merged, branch-free) */
        if (reserve(&pool->cand, count + 2, sizeof(State)) < 0
            || reserve(&pool->spare, count + 2, sizeof(State)) < 0
            || reserve(&pool->runs, count + 2, sizeof(Py_ssize_t)) < 0) {
            goto done;
        }
        const double *sw = pool->w.items, *sc = pool->c.items;
        State *kept = (State *)pool->cand.items + 1;

        /* The LP completion by the DIPs still outside the core: knots at the
         * running sums of their left edges (steepest first, negated) and of
         * their right edges, each a sequential cumsum (from -0.0, the
         * identity of +).  Every x = lo - w of this stage lies in
         * [lo - (most_step + sw[0]), lo - (least_step + sw[m - 1])] (the
         * states are heaviest first and rounding is monotone), so the lists
         * stop at the first knot past either end: numpy's rule reads no knot
         * beyond it. */
        int single = heads[0] < 0 && heads[1] < 0;  /* numpy's one-knot rule */
        double least_x = lo - (most_step + sw[0]), most_x = lo - (least_step + sw[m - 1]);
        double *xs = knot_x + edges, *ys = knot_y + edges;
        xs[0] = 0.0;
        ys[0] = 0.0;
        Py_ssize_t nknots = 1;
        double run_w = -0.0, run_c = -0.0;
        for (Py_ssize_t e = heads[0]; e >= 0 && xs[0] > least_x; e = after[e]) {
            run_w += edge_dw[e];
            run_c += edge_dc[e];
            *--xs = -run_w;
            *--ys = -run_c;
            nknots++;
        }
        run_w = run_c = -0.0;
        for (Py_ssize_t e = heads[1]; e >= 0 && xs[nknots - 1] <= most_x; e = after[e]) {
            run_w += edge_dw[e];
            run_c += edge_dc[e];
            xs[nknots] = run_w;
            ys[nknots++] = run_c;
        }
        for (Py_ssize_t q = 0; q + 1 < nknots; q++) {
            slopes[q] = (ys[q + 1] - ys[q]) / (xs[q + 1] - xs[q]);
        }
        xs[nknots] = INFINITY;  /* a sentinel: no x walks past it */

        /* Candidate (block b, state p): the state moved to the block's
         * column.  Inside the band (within the slack) and cheaper than the
         * best so far it is ``done``: kept in candidate order at the far
         * end of ``spare`` where a band check decides, else only the first
         * cheapest.  A block's weights do not rise, so its states inside the
         * band are one range of p.  A candidate is kept for the next stage
         * if its LP completion bound is below the best so far's (the done
         * states can only lower that: the kept ones are filtered again) and
         * the later DIPs can still bring it under the band's top. */
        Knots knots = {xs, ys, slopes, nknots, single, lo};
        /* Whether chunks of a block may be judged together: state costs that
         * do not rise (the one-sided program's thinning leaves them
         * falling) and knot values that do not fall (the hull's edges cost
         * more as they weigh more). */
        int sorted = !banded;
        for (Py_ssize_t p = 0; sorted && p + 1 < m; p++) {
            sorted = sc[p + 1] <= sc[p];
        }
        for (Py_ssize_t q = 0; sorted && q + 1 < nknots; q++) {
            sorted = ys[q] <= ys[q + 1];
        }
        double limit = best_cost * factor, reach = shed_after[s];
        State *done_list = (State *)pool->spare.items + count + 2;
        Py_ssize_t ndone = 0, nkept = 0;
        State cheapest = {0};
        for (Py_ssize_t b = 0; b < ncols; b++) {
            double step_w = dW[d * k + col_of[b]], step_c = dC[d * k + col_of[b]];
            Py_ssize_t p = 0;
            while (p < m && !(step_w + sw[p] <= most_w)) {
                p++;
            }
            for (; p < m; p++) {
                State next = {step_w + sw[p], step_c + sc[p], (int)b, (int)p};
                if (!(next.w >= least_w)) {
                    break;
                }
                if (next.c < best_cost) {
                    if (checked) {
                        *--done_list = next;  /* reversed below */
                        ndone++;
                    } else if (ndone == 0 || next.c < cheapest.c) {
                        cheapest = next;
                        ndone = 1;
                    }
                }
            }
            nkept += gather_block(&knots, sorted, step_w, step_c, sw, sc, m, (int)b, limit,
                                  reach, most_w, kept + nkept);
        }
        Py_ssize_t *tried = NULL;
        if (!checked) {
            done_list = &cheapest;
        } else if (ndone > 0) {
            for (Py_ssize_t q = 0; q < ndone / 2; q++) {
                State swap = done_list[q];
                done_list[q] = done_list[ndone - 1 - q];
                done_list[ndone - 1 - q] = swap;
            }
            /* in stable cost order */
            if (reserve(&pool->rank, 2 * ndone, sizeof(Py_ssize_t)) < 0
                || reserve(&pool->key, ndone, sizeof(double)) < 0) {
                goto done;
            }
            tried = pool->rank.items;
            double *costs = pool->key.items;
            for (Py_ssize_t q = 0; q < ndone; q++) {
                tried[q] = q;
                costs[q] = done_list[q].c;
            }
            stable_sort(tried, ndone, costs, tried + ndone, pool->runs.items);
        }

        /* The first done state that passes the band check (any, without
         * one) is the new best. */
        int improved = 0;
        for (Py_ssize_t q = 0; q < ndone; q++) {
            const State *hit = done_list + (tried ? tried[q] : q);
            Py_ssize_t p = hit->parent;
            for (Py_ssize_t dd = 0; dd < n; dd++) {
                sel[dd] = (Py_ssize_t)base[dd];
            }
            sel[d] = col_of[hit->column];
            for (Py_ssize_t t = s - 1; t >= 0; t--) {
                Py_ssize_t at = first_of[t] + p;
                sel[order[t]] = ((int *)pool->item.items)[at];
                p = ((int *)pool->parent.items)[at];
            }
            if (checked) {
                double total = 0.0;  /* left_to_right_sum of the given weights */
                for (Py_ssize_t dd = 0; dd < n; dd++) {
                    total += band_w[dd * k + sel[dd]];
                }
                if (!(band_lo <= total && total <= band_hi)) {
                    continue;
                }
            }
            for (Py_ssize_t dd = 0; dd < n; dd++) {
                selection[dd] = sel[dd];
            }
            found = improved = 1;
            best_cost = hit->c;
            break;
        }
        if (improved) {
            limit = best_cost * factor;
            Py_ssize_t out = 0, hint = -1;
            for (Py_ssize_t q = 0; q < nkept; q++) {
                if (q > 0 && kept[q].column != kept[q - 1].column) {
                    hint = -1;
                }
                kept[out] = kept[q];
                out += completion(&knots, kept[q].w, kept[q].c, &hint) < limit;
            }
            nkept = out;
        }

        if (reserve(&pool->flag, nkept, 1) < 0
            || reserve(&pool->blocks, 2 * (ncols + 1), sizeof(Py_ssize_t)) < 0) {
            goto done;
        }
        unsigned char *marked = pool->flag.items;
        Py_ssize_t firsts;
        if (banded) {
            /* Heaviest first (each block is a descending run), and of each
             * exact-weight tie the cheapest state (the first of equally
             * cheap ones). */
            kept = merge_heaviest_first(kept, nkept, (State *)pool->spare.items + 1,
                                        pool->runs.items);
            if (nkept > 0) {
                Py_ssize_t out = 0;
                double tie_w = kept[0].w, tie_c = kept[0].c;
                for (Py_ssize_t q = 1; q < nkept; q++) {
                    int tie = kept[q].w == tie_w;
                    int take = !tie | (kept[q].c < tie_c);
                    out += !tie;
                    kept[out] = kept[take ? q : out];
                    tie_w = kept[q].w;
                    tie_c = take ? kept[q].c : tie_c;
                }
                nkept = out + 1;
            }
            /* Over budget: the lowest bounds (stable), in weight order; the
             * least bound among the rest is remembered. */
            memset(marked, 1, nkept);
            if (nkept > budget) {
                if (reserve(&pool->rank, 2 * nkept, sizeof(Py_ssize_t)) < 0
                    || reserve(&pool->key, nkept, sizeof(double)) < 0) {
                    goto done;
                }
                Py_ssize_t *rank = pool->rank.items, hint = -1;
                double *bounds = pool->key.items;
                for (Py_ssize_t q = 0; q < nkept; q++) {
                    rank[q] = q;
                    bounds[q] = completion(&knots, kept[q].w, kept[q].c, &hint);
                }
                stable_sort(rank, nkept, bounds, rank + nkept, pool->runs.items);
                if (bounds[rank[budget]] < dropped) {
                    dropped = bounds[rank[budget]];
                }
                memset(marked, 0, nkept);
                for (Py_ssize_t q = 0; q < budget; q++) {
                    marked[rank[q]] = 1;
                }
            }
            firsts = nkept < budget ? nkept : budget;
        } else {
            /* The blocks as staircases, merged pairwise (adjacent runs) to
             * one; run r at from + start[r], len[r] long. */
            Py_ssize_t *start = pool->blocks.items, *len = start + ncols + 1;
            Py_ssize_t runs = staircases(kept, nkept, start);
            for (Py_ssize_t r = 0; r < runs; r++) {
                len[r] = start[r + 1] - start[r];
            }
            State *from = kept, *into = (State *)pool->spare.items + 1;
            while (runs > 1) {
                Py_ssize_t merged = 0;
                for (Py_ssize_t r = 0; r < runs; r += 2) {
                    if (r + 1 == runs) {
                        memcpy(into + start[r], from + start[r], len[r] * sizeof(State));
                    } else {
                        len[r] = merge_staircases(from + start[r], len[r], from + start[r + 1],
                                                  len[r + 1], into + start[r]);
                    }
                    start[merged] = start[r];
                    len[merged++] = len[r];
                }
                runs = merged;
                State *swap = from;
                from = into;
                into = swap;
            }
            kept = from + (runs ? start[0] : 0);
            nkept = runs ? len[0] : 0;
            /* A state survives its cost bucket if it is in a lower one than
             * every heavier state; over budget the buckets widen (and stay
             * wide). */
            for (;;) {
                double least = INFINITY;
                firsts = 0;
                for (Py_ssize_t q = 0; q < nkept; q++) {
                    double level = bucket > 0.0 ? floor(kept[q].c / bucket) : kept[q].c;
                    int first = (q == 0) | (level < least);
                    marked[q] = (unsigned char)first;
                    firsts += first;
                    least = first ? level : least;
                }
                if (firsts <= budget) {
                    break;
                }
                double doubled = 2.0 * bucket, widest = gap / 2.0 * best_cost / (double)n;
                bucket = widest > doubled ? widest : doubled;
            }
            loss += bucket;
        }
        if (firsts == 0) {
            break;
        }

        /* The trail: each marked state's parent and column; then the states
         * (written branch-free: one slot past the last is scratch). */
        if (reserve(&pool->parent, stored + firsts + 1, sizeof(int)) < 0
            || reserve(&pool->item, stored + firsts + 1, sizeof(int)) < 0
            || reserve(&pool->nw, firsts + 1, sizeof(double)) < 0
            || reserve(&pool->nc, firsts + 1, sizeof(double)) < 0) {
            goto done;
        }
        int *parents = (int *)pool->parent.items + stored;
        int *items = (int *)pool->item.items + stored;
        double *next_w = pool->nw.items, *next_c = pool->nc.items;
        for (Py_ssize_t q = 0, out = 0; q < nkept; q++) {
            parents[out] = kept[q].parent;
            items[out] = (int)col_of[kept[q].column];
            next_w[out] = kept[q].w;
            next_c[out] = kept[q].c;
            out += marked[q];
        }
        nkept = firsts;
        first_of[s] = stored;
        stored += nkept;
        Scratch swap = pool->w;
        pool->w = pool->nw;
        pool->nw = swap;
        swap = pool->c;
        pool->c = pool->nc;
        pool->nc = swap;
        m = nkept;
        states += nkept;
    }
    double lower;
    if (cut) {
        lower = -INFINITY;
    } else {
        double limit = best_cost * factor;
        lower = (dropped < limit ? dropped : limit) - loss;
    }
    result = Py_BuildValue("(OdnO)", found ? Py_True : Py_False, lower, states,
                           cut ? Py_True : Py_False);
done:
    Py_XDECREF(clock);
    if (pool == &own) {
        release_core_scratch(&own);
    } else {
        pool->busy = 0;
    }
    while (held > 0) {
        PyBuffer_Release(&views[--held]);
    }
    return result;
}

static PyMethodDef kernel_methods[] = {
    {"walk", walk, METH_VARARGS, walk_doc},
    {"smooth_wrr", smooth_wrr, METH_VARARGS, smooth_wrr_doc},
    {"station_stats", station_stats, METH_VARARGS, station_stats_doc},
    {"band_dp", band_dp, METH_VARARGS, band_dp_doc},
    {"bisect_bank", bisect_bank, METH_VARARGS, bisect_bank_doc},
    {"expand_core", expand_core, METH_VARARGS, expand_core_doc},
    {NULL, NULL, 0, NULL},
};

static PyModuleDef_Slot kernel_slots[] = {
    {0, NULL},
};

static void
free_kernels(void *module)
{
    CoreScratch *pool = PyModule_GetState((PyObject *)module);
    if (pool != NULL) {
        release_core_scratch(pool);
    }
}

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro._kernels",
    .m_doc = "Compiled station walk, smooth-WRR pick, station integrals, band DP, curve "
              "inversion and mckp core DP (see repro.kernels).",
    .m_size = sizeof(CoreScratch),
    .m_methods = kernel_methods,
    .m_slots = kernel_slots,
    .m_free = free_kernels,
};

PyMODINIT_FUNC
PyInit__kernels(void)
{
    return PyModuleDef_Init(&kernel_module);
}
