/*
 * The scalar loops the simulator and the control tick spend their time in:
 * the FCFS station walk (StationWalk.advance), the smooth-WRR argmax loop
 * (WeightedRoundRobin, the epoch engine's _SmoothWrrRouter), a replayed
 * station's busy integrals (queueing._station_stats), the dp backend's band
 * DP (solver/dp.py) and the section 4.5 curve inversion
 * (core/curve.py::weights_for_latencies).
 *
 * Each is a transcription of a Python body -- in repro/kernels.py, or for
 * the inversion in repro/core/curve.py -- which runs where this module
 * cannot be built and which the tests hold it to byte for byte.  All use
 * only IEEE additions, subtractions, multiplications, divisions and
 * comparisons, in the Python body's order; built with -ffp-contract=off (no
 * fused multiply-add) and without fast-math, every result is the bit the
 * Python body computes.  Arrays come in through the buffer protocol:
 * C-contiguous float64 (int32 for picks, int64 for units and selections,
 * bool for flags), no numpy C API.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
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
walk(PyObject *module, PyObject *args)
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
smooth_wrr(PyObject *module, PyObject *args)
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
station_stats(PyObject *module, PyObject *args)
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
band_dp(PyObject *module, PyObject *args)
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
bisect_bank(PyObject *module, PyObject *args)
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

static PyMethodDef kernel_methods[] = {
    {"walk", walk, METH_VARARGS, walk_doc},
    {"smooth_wrr", smooth_wrr, METH_VARARGS, smooth_wrr_doc},
    {"station_stats", station_stats, METH_VARARGS, station_stats_doc},
    {"band_dp", band_dp, METH_VARARGS, band_dp_doc},
    {"bisect_bank", bisect_bank, METH_VARARGS, bisect_bank_doc},
    {NULL, NULL, 0, NULL},
};

static PyModuleDef_Slot kernel_slots[] = {
    {0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro._kernels",
    .m_doc = "Compiled station walk, smooth-WRR pick, station integrals, band DP and curve "
              "inversion (see repro.kernels).",
    .m_size = 0,
    .m_methods = kernel_methods,
    .m_slots = kernel_slots,
};

PyMODINIT_FUNC
PyInit__kernels(void)
{
    return PyModuleDef_Init(&kernel_module);
}
