/* Native slot kernel: the single-session period loop.
 *
 * The loop walks each period's slots with `walk_period`, which gives
 * the per-slot results of the reference engine's `_scalar_slot` in
 * simulator.py: the cursor visits each slot of the period, serving due
 * retransmissions at eligible slots (the shared retx_fits_slot rule),
 * transmitting new data at special slots that cannot carry an
 * oversized due block (the deferral rule), and committing maximal clean
 * sub-segments bounded by the due head and the first fresh NACK's
 * re-arm point.
 *
 * - `repro_run_periods` runs every CQI period of one session: link
 *   adaptation (rank EWMA and hysteresis, OLLA offset and update),
 *   the error probability, decode, the walk, and the trace writes, all
 *   in place.
 * - `repro_error_probability` is the logistic error probability of one
 *   period, the one evaluation `repro_run_periods` calls.
 * - When the last period is done, `repro_run_periods` forward-fills the
 *   CQI column over unscheduled slots (`forward_fill_cqi`).
 *
 * Floating point.  Byte-identity with the Python engines holds because
 * every double operation here is one IEEE-754 +, -, *, / or comparison
 * written in the same order as the Python expression it mirrors, and
 * the build passes -ffp-contract=off so none is fused into an FMA.
 * The logistic error probability needs an exponential, which libm and
 * numpy do not round alike, so this file calls no libm exp: the caller
 * passes numpy's own float64 exp inner loop as a function pointer (see
 * `repro_error_probability`).  rint rounds ties to even, as Python's
 * round does.
 *
 * Lane state is struct-of-arrays (due / tbs / att / p rows, strictly
 * increasing due order).  Due slots are unique and monotone in push
 * order (every push is slot + rtt with at most one push per slot), so
 * the sorted lane is exactly the engines' due-slot min-heap: pops
 * advance a head offset, pushes append at the tail, and the row is
 * compacted before returning.  Lane capacity must be >= pending count
 * + period length (each slot queues at most one block).
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

/* Walk one column through the period [start, stop).
 *
 * `fm`, `cum`, `dec` and `pe` are period-relative (fresh-failure mask,
 * prefix count of transmit slots with cum[0] == 0, decode outcomes of
 * new data, error probabilities); `rx`, `usable` and `special` are
 * indexed by absolute slot.  Committed sub-segments are appended as
 * (col, lo, hi) and served/deferred events as (col, slot, tbs, ok,
 * is_retx) at *ns / *ne, in chronological order. */
static void walk_period(
    int64_t c, int64_t start, int64_t stop,
    int64_t *due_r, int64_t *tbs_r, int64_t *att_r, double *ph_r,
    int64_t *pn, int64_t far_sentinel,
    const uint8_t *fm, const int64_t *cum, int64_t tf, int64_t ts,
    const double *rx, const uint8_t *dec, const double *pe,
    const uint8_t *usable, const uint8_t *special,
    int64_t rtt, double scale, int64_t max_attempts,
    int64_t *acks, int64_t *nacks,
    int64_t *seg_col, int64_t *seg_lo, int64_t *seg_hi, int64_t *ns_io,
    int64_t *ev_col, int64_t *ev_slot, int64_t *ev_tbs,
    uint8_t *ev_ok, uint8_t *ev_retx, int64_t *ne_io)
{
    int64_t m = stop - start;
    int64_t ns = *ns_io, ne = *ne_io;
    int64_t head = 0;
    int64_t count = *pn;
    int64_t tail = count;

    /* e = period-relative position of the next fresh-NACK candidate
     * (kept normalized: fm[e] set, or e == m). */
    int64_t e = 0;
    while (e < m && !fm[e])
        e++;

    int64_t i = start;
    int64_t a = 0, nk = 0;
    while (i < stop) {
        if (count > 0 && due_r[head] <= i) {
            /* Retransmission window: per-slot fallback until the due
             * block is served or deferred past. */
            if (usable[i]) {
                int is_sp = special[i];
                int64_t htbs = tbs_r[head];
                if (!(is_sp && htbs > ts)) {
                    /* Serve the due head (retx_fits_slot). */
                    int64_t hatt = att_r[head];
                    double hp = ph_r[head];
                    double pr = hp * scale;
                    if (!(pr < 1.0))
                        pr = 1.0;
                    uint8_t ok = rx[i] >= pr;
                    ev_col[ne] = c;
                    ev_slot[ne] = i;
                    ev_tbs[ne] = htbs;
                    ev_ok[ne] = ok;
                    ev_retx[ne] = 1;
                    ne++;
                    head++;
                    count--;
                    if (!ok && hatt + 1 < max_attempts) {
                        due_r[tail] = i + rtt;
                        tbs_r[tail] = htbs;
                        att_r[tail] = hatt + 1;
                        ph_r[tail] = hp;
                        tail++;
                        count++;
                    }
                } else if (ts > 0) {
                    /* Deferral: the special slot carries new data
                     * while the oversized block waits. */
                    int64_t j = i - start;
                    uint8_t ok = dec[j];
                    ev_col[ne] = c;
                    ev_slot[ne] = i;
                    ev_tbs[ne] = ts;
                    ev_ok[ne] = ok;
                    ev_retx[ne] = 0;
                    ne++;
                    if (ok) {
                        a++;
                    } else {
                        nk++;
                        if (max_attempts > 1) {
                            due_r[tail] = i + rtt;
                            tbs_r[tail] = ts;
                            att_r[tail] = 1;
                            ph_r[tail] = pe[j];
                            tail++;
                            count++;
                        }
                    }
                }
            }
            i++;
            /* The fallback owned that position: drop any fresh-NACK
             * candidate there. */
            if (e < i - start) {
                e = i - start;
                while (e < m && !fm[e])
                    e++;
            }
            continue;
        }
        /* Clean sub-segment up to the due head, the period end, or the
         * first fresh NACK's re-arm point. */
        int64_t seg_end = stop;
        if (count > 0 && due_r[head] < stop)
            seg_end = due_r[head];
        if (e < m) {
            int64_t first = start + e;
            if (first < seg_end && first + rtt < seg_end)
                seg_end = first + rtt;
        }
        int64_t j1 = seg_end - start;
        /* Queue every fresh NACK in the committed range, in slot order:
         * their due slots lie at or beyond seg_end.  A one-attempt cap
         * drops them instead. */
        int64_t seg_nacks = 0;
        while (e < j1) {
            if (max_attempts > 1) {
                due_r[tail] = start + e + rtt;
                tbs_r[tail] = special[start + e] ? ts : tf;
                att_r[tail] = 1;
                ph_r[tail] = pe[e];
                tail++;
                count++;
            }
            seg_nacks++;
            e++;
            while (e < m && !fm[e])
                e++;
        }
        nk += seg_nacks;
        seg_col[ns] = c;
        seg_lo[ns] = i;
        seg_hi[ns] = seg_end;
        ns++;
        a += cum[j1] - cum[i - start] - seg_nacks;
        i = seg_end;
    }
    *acks = a;
    *nacks = nk;
    /* Compact the lane back to offset 0 and restore the due sentinel
     * over vacated tail entries. */
    if (head > 0) {
        if (count > 0) {
            memmove(due_r, due_r + head, count * sizeof(int64_t));
            memmove(tbs_r, tbs_r + head, count * sizeof(int64_t));
            memmove(att_r, att_r + head, count * sizeof(int64_t));
            memmove(ph_r, ph_r + head, count * sizeof(double));
        }
        for (int64_t q = count; q < tail; q++)
            due_r[q] = far_sentinel;
    }
    *pn = count;
    *ns_io = ns;
    *ne_io = ne;
}

/* A numpy ufunc inner loop (`PyUFuncGenericFunction`): args, dimensions
 * and steps as numpy passes them, npy_intp being intptr_t. */
typedef void (*ufunc_loop_t)(char **args, const intptr_t *dims,
                             const intptr_t *steps, void *data);

/* The decode-failure probability of `n` slots at spectral efficiency
 * `eff` over capacities `cap`, into `out`: the in-place ufunc sequence
 * of `BlerModel.error_probability_given_capacity`, step for step --
 * subtract, subtract bias, divide by slope, negate, exp, add 1.0,
 * divide 1.0 by it.  `exp_loop` / `exp_data` are numpy's float64 exp
 * inner loop and its data pointer, called in place over `out` exactly
 * as `np.exp(out, out=out)` calls it, so the exponentials are the bits
 * numpy computes on this host's SIMD path. */
void repro_error_probability(double eff, const double *cap, int64_t n,
                             double bias, double slope,
                             ufunc_loop_t exp_loop, void *exp_data,
                             double *out)
{
    for (int64_t j = 0; j < n; j++)
        out[j] = -(((eff - cap[j]) - bias) / slope);
    char *args[2] = {(char *)out, (char *)out};
    intptr_t dims[1] = {(intptr_t)n};
    intptr_t steps[2] = {(intptr_t)sizeof(double), (intptr_t)sizeof(double)};
    exp_loop(args, dims, steps, exp_data);
    for (int64_t j = 0; j < n; j++)
        out[j] = 1.0 / (out[j] + 1.0);
}

/* Single-session period loop.
 *
 * Field order and types must match `_native.SessionLoop` (int64,
 * double and pointers only, so the layout has no padding), which also
 * declares each row pointer's element type and length; `_native_periods`
 * in simulator.py checks every row against both.  n_periods is
 * ceil(n_slots / period).  A trace column `name` is written through
 * field `t_<name>`. */
typedef struct {
    /* shape */
    int64_t n_slots, period;
    /* per-period inputs (n_periods) */
    const double *measured;
    const int64_t *cqi, *prb, *grant;
    /* per-slot inputs (n_slots) */
    const double *uniforms, *retx_uniforms;
    const uint8_t *usable, *special;
    const double *eff_cap;
    /* link-adaptation LUTs: mcs_lut (2, 16, n_off) at offset - off_lo;
     * eff/mod (2, n_mcs); tbs (2, n_grants, n_mcs, max_layers) */
    const int64_t *mcs_lut;
    int64_t n_off, off_lo, n_mcs;
    const double *eff_lut;
    const int64_t *mod_lut;
    const int64_t *tbs_full, *tbs_special;
    int64_t n_grants, max_layers;
    /* rank adapter: per step k (rank k + 2) the threshold to reach it
     * and the lower one to keep it */
    const double *rank_up, *rank_keep;
    int64_t n_rank_steps, adapter_max;
    double beta;
    /* OLLA */
    int64_t olla_enabled;
    double olla_up, olla_down, olla_lo, olla_hi;
    /* carrier and HARQ */
    int64_t is_qam256, dci_fallback_cqi, rtt, max_attempts;
    double scale;
    /* logistic BLER model and numpy's float64 exp inner loop (see
     * repro_error_probability) */
    double bias, slope;
    ufunc_loop_t exp_loop;
    void *exp_data;
    /* HARQ lane (capacity cap, pending entries) */
    int64_t cap;
    int64_t *due, *tbs, *att;
    double *ph;
    int64_t pending;
    /* per-period scratch: pe, dec/fm/tx (period), cum (period + 1),
     * seg_* and ev_* (period + 1) */
    double *pe;
    uint8_t *dec, *fm, *tx;
    int64_t *cum;
    int64_t *seg_col, *seg_lo, *seg_hi;
    int64_t *ev_col, *ev_slot, *ev_tbs;
    uint8_t *ev_ok, *ev_retx;
    /* trace columns (n_slots), written in place at the schema dtypes
     * of `COLUMN_DTYPES` in xcal/records.py (bool is one byte) */
    uint8_t *t_scheduled, *t_is_retx, *t_error;
    int16_t *t_n_prb;
    int32_t *t_n_re;
    int8_t *t_mcs_index, *t_modulation_order, *t_layers;
    int32_t *t_tbs_bits, *t_delivered_bits;
    int8_t *t_cqi, *t_dci_format;
    /* resumable loop state */
    int64_t p, rank, have_ewma;
    double ewma, delta;
} session_t;

#define LOOP_DONE 0
#define NEED_ROOM 1

static inline void write_slot(session_t *s, int64_t i, int64_t prb,
                              int64_t mcs, int64_t mod, int64_t layers,
                              int64_t cqi, int64_t dci, int64_t tbs,
                              uint8_t ok, uint8_t is_retx)
{
    s->t_scheduled[i] = 1;
    s->t_is_retx[i] = is_retx;
    s->t_n_prb[i] = (int16_t)prb;
    s->t_n_re[i] = (int32_t)(prb * 12);
    s->t_mcs_index[i] = (int8_t)mcs;
    s->t_modulation_order[i] = (int8_t)mod;
    s->t_layers[i] = (int8_t)layers;
    s->t_tbs_bits[i] = (int32_t)tbs;
    s->t_cqi[i] = (int8_t)cqi;
    s->t_dci_format[i] = (int8_t)dci;
    s->t_delivered_bits[i] = ok ? (int32_t)tbs : 0;
    s->t_error[i] = !ok;
}

/* The rule of `_forward_fill_cqi` in simulator.py: a slot without a CQI
 * (0) takes the last earlier slot's, slots before the first CQI take
 * the first one, and a column with no CQI at all stays as it is. */
static void forward_fill_cqi(int8_t *cqi, int64_t n)
{
    int64_t first = 0;
    while (first < n && cqi[first] <= 0)
        first++;
    if (first == n)
        return;
    int8_t last = cqi[first];
    for (int64_t i = 0; i < n; i++) {
        if (cqi[i] > 0)
            last = cqi[i];
        else
            cqi[i] = last;
    }
}

/* Run periods [s->p, n_periods) of the session.  Returns LOOP_DONE
 * when the session is finished (the CQI column then forward-filled),
 * or NEED_ROOM when the lane needs more
 * than s->cap entries (the caller widens the lane and calls again);
 * that return happens before the period changes any state, so the
 * next call resumes exactly there. */
int64_t repro_run_periods(session_t *s)
{
    const int64_t period = s->period, n_slots = s->n_slots;
    const int64_t n_periods = (n_slots + period - 1) / period;
    for (int64_t p = s->p; p < n_periods; p++) {
        int64_t start = p * period;
        int64_t stop = start + period < n_slots ? start + period : n_slots;
        int64_t m = stop - start;
        if (s->pending + m > s->cap) {
            s->p = p;
            return NEED_ROOM;
        }

        /* --- measurement report ------------------------------------ */
        double measured = s->measured[p];
        s->ewma = s->have_ewma
            ? (1.0 - s->beta) * s->ewma + s->beta * measured
            : measured;
        s->have_ewma = 1;
        int64_t rank = 1;
        for (int64_t k = 0; k < s->n_rank_steps; k++) {
            int64_t cand = k + 2;
            double eff = cand <= s->rank ? s->rank_keep[k] : s->rank_up[k];
            if (s->ewma >= eff)
                rank = cand;
        }
        if (rank > s->adapter_max)
            rank = s->adapter_max;
        s->rank = rank;
        int64_t layers = rank < s->max_layers ? rank : s->max_layers;
        int64_t cqi = s->cqi[p];
        int64_t fb = s->is_qam256 && cqi <= s->dci_fallback_cqi;
        int64_t offset = s->olla_enabled ? (int64_t)rint(s->delta) : 0;
        int64_t mcs = s->mcs_lut[(fb * 16 + cqi) * s->n_off + offset - s->off_lo];
        int64_t row = fb * s->n_mcs + mcs;

        int64_t mod = s->mod_lut[row];
        int64_t prb = s->prb[p];
        int64_t tix = ((fb * s->n_grants + s->grant[p]) * s->n_mcs + mcs)
            * s->max_layers + layers - 1;
        int64_t tf = s->tbs_full[tix], ts = s->tbs_special[tix];
        int64_t dci = (fb || !s->is_qam256) ? 0 : 1;

        /* --- decode outcomes and transmit pattern ------------------- */
        const double *pe = s->pe;
        repro_error_probability(s->eff_lut[row], s->eff_cap + start, m,
                                s->bias, s->slope, s->exp_loop, s->exp_data,
                                s->pe);
        const double *u = s->uniforms + start;
        s->cum[0] = 0;
        for (int64_t j = 0; j < m; j++) {
            int64_t i = start + j;
            uint8_t d = u[j] >= pe[j];
            uint8_t t = s->usable[i] && (s->special[i] ? ts > 0 : tf > 0);
            s->dec[j] = d;
            s->tx[j] = t;
            s->fm[j] = t && !d;
            s->cum[j + 1] = s->cum[j] + t;
        }

        /* --- HARQ walk ---------------------------------------------- */
        int64_t acks, nacks, ns = 0, ne = 0;
        walk_period(
            0, start, stop, s->due, s->tbs, s->att, s->ph, &s->pending,
            INT64_MAX, s->fm, s->cum, tf, ts,
            s->retx_uniforms, s->dec, pe, s->usable, s->special,
            s->rtt, s->scale, s->max_attempts, &acks, &nacks,
            s->seg_col, s->seg_lo, s->seg_hi, &ns,
            s->ev_col, s->ev_slot, s->ev_tbs, s->ev_ok, s->ev_retx, &ne);

        /* --- trace writes ------------------------------------------- */
        for (int64_t k = 0; k < ns; k++) {
            for (int64_t i = s->seg_lo[k]; i < s->seg_hi[k]; i++) {
                int64_t j = i - start;
                if (s->tx[j])
                    write_slot(s, i, prb, mcs, mod, layers, cqi, dci,
                               s->special[i] ? ts : tf, s->dec[j], 0);
            }
        }
        for (int64_t k = 0; k < ne; k++)
            write_slot(s, s->ev_slot[k], prb, mcs, mod, layers, cqi, dci,
                       s->ev_tbs[k], s->ev_ok[k], s->ev_retx[k]);

        /* --- OLLA update (Python: delta + acks*up - nacks*down) ----- */
        if (s->olla_enabled) {
            double d = s->delta + (double)acks * s->olla_up
                - (double)nacks * s->olla_down;
            s->delta = d < s->olla_lo ? s->olla_lo
                : d > s->olla_hi ? s->olla_hi : d;
        }
        s->p = p + 1;
    }
    forward_fill_cqi(s->t_cqi, n_slots);
    return LOOP_DONE;
}
