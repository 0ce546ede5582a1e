/*
 * The scalar loops the request substrate spends its time in: the FCFS
 * station walk (StationWalk.advance), the smooth-WRR argmax loop
 * (WeightedRoundRobin, the epoch engine's _SmoothWrrRouter) and a replayed
 * station's busy integrals (queueing._station_stats).
 *
 * Each is a transcription of the Python body in repro/kernels.py, which
 * runs where this module cannot be built and which the tests hold it to
 * byte for byte.  All use only IEEE additions, subtractions, one
 * multiplication per term and comparisons, in the Python body's order;
 * built with -ffp-contract=off (no fused multiply-add) and without
 * fast-math, every result is the bit the Python body computes.  Arrays come
 * in through the buffer protocol: C-contiguous float64 (int32 for picks,
 * bool for admissions), no numpy C API.
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
                     itemsize == 8 ? "float64" : itemsize == 4 ? "int32" : "bool");
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

static PyMethodDef kernel_methods[] = {
    {"walk", walk, METH_VARARGS, walk_doc},
    {"smooth_wrr", smooth_wrr, METH_VARARGS, smooth_wrr_doc},
    {"station_stats", station_stats, METH_VARARGS, station_stats_doc},
    {NULL, NULL, 0, NULL},
};

static PyModuleDef_Slot kernel_slots[] = {
    {0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro._kernels",
    .m_doc = "Compiled station walk, smooth-WRR pick and station integrals (see repro.kernels).",
    .m_size = 0,
    .m_methods = kernel_methods,
    .m_slots = kernel_slots,
};

PyMODINIT_FUNC
PyInit__kernels(void)
{
    return PyModuleDef_Init(&kernel_module);
}
