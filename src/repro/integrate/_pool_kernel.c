/*
 * Compiled lockstep rounds of repro.integrate.pooled.advance_pool for the
 * DOPRI5 integrator: pooled trilinear sampling, the 7 stages, the error
 * norm, the step controller, exit/crossing classification with slot
 * switching, and per-particle vertex runs.
 *
 * Every arithmetic expression below evaluates the exact expression tree
 * of the NumPy reference path (PoolSampler + Dopri5.attempt_steps_prepared
 * + Integrator.adapt_h + the classification in advance_pool), so results
 * are bit-for-bit identical to it.  That requires building with
 * -ffp-contract=off (no fused multiply-add) and:
 *
 *   - trilinear sums start from +0.0 and add the 8 corner terms in
 *     corner order, as np.einsum("ke,kec->kc") does;
 *   - 3-vector squared norms add (x*x + z*z) + y*y, the order of
 *     np.einsum("kc,kc->k") on contiguous rows;
 *   - the controller's err**(-1/order) calls NumPy's own float64 power
 *     loop (handed in by pk_init), never libm pow: the two differ in the
 *     last bit for a few percent of inputs.
 *
 * Lockstep rounds are independent per particle (no particle reads
 * another's state), so this runs each particle's rounds to completion in
 * turn.  A particle takes at most round_limit trial steps; needing more
 * than max_rounds is the non-converging-controller error.  Vertices are
 * written grouped by particle, in input order, chronological within one.
 *
 * Layouts shared with repro/integrate/native.py and pooled.py:
 *   Slot    one row of BlockPool.table (SLOT_DTYPE);
 *   Params  the struct packed by native.NativeKernel.params;
 *   f       (k, 5) float64 per particle: x, y, z, h, time;
 *   n       (k, 6) int64 per particle: steps, slot, fresh, code,
 *           exit block id, vertex count.
 */

#include <math.h>
#include <stdint.h>

typedef struct {
    const double *data;   /* (nx*ny*nz, 3) node vectors */
    int64_t block_id;
    double lo[3];         /* sample-bounds origin */
    double scale[3];      /* nodes per unit length */
    double blo[3];        /* block bounds (exit test) */
    double bhi[3];
} Slot;

typedef struct {
    /* per call */
    int64_t dims[3];
    int64_t n_slots;
    int64_t round_limit;
    int64_t max_rounds;
    /* per problem */
    int64_t blocks_per_axis[3];
    int64_t max_steps;
    double dom_lo[3];
    double dom_hi[3];
    double dec_lo[3];
    double block_size[3];
    double rtol, atol;
    double safety, shrink_limit, grow_limit;
    double h_min, h_max, h_min_edge;
    double min_speed, exponent;
} Params;

typedef int (*strided_loop_fn)(void *context, char *const *data,
                               const intptr_t *dimensions,
                               const intptr_t *strides, void *auxdata);

/* DOPRI5 tableau, set once by pk_init from repro.integrate.dopri5. */
static double A21, A31, A32, A41, A42, A43, A51, A52, A53, A54;
static double A61, A62, A63, A64, A65, B1, B3, B4, B5, B6;
static double E1, E3, E4, E5, E6, E7;

static strided_loop_fn pow_loop;
static void *pow_context;
static void *pow_auxdata;

void pk_init(const double *tableau, void *loop, void *context,
             void *auxdata)
{
    const double *t = tableau;
    A21 = t[0];
    A31 = t[1]; A32 = t[2];
    A41 = t[3]; A42 = t[4]; A43 = t[5];
    A51 = t[6]; A52 = t[7]; A53 = t[8]; A54 = t[9];
    A61 = t[10]; A62 = t[11]; A63 = t[12]; A64 = t[13]; A65 = t[14];
    B1 = t[15]; B3 = t[16]; B4 = t[17]; B5 = t[18]; B6 = t[19];
    E1 = t[20]; E3 = t[21]; E4 = t[22]; E5 = t[23]; E6 = t[24];
    E7 = t[25];
    pow_loop = (strided_loop_fn)loop;
    pow_context = context;
    pow_auxdata = auxdata;
}

/* np.power(x, e, out=x) on one element, through NumPy's own loop with
 * the strides of the in-place array call in Integrator.adapt_h. */
static double np_power(double x, double e)
{
    char *data[3] = {(char *)&x, (char *)&e, (char *)&x};
    const intptr_t n = 1;
    const intptr_t strides[3] = {8, 0, 8};
    pow_loop(pow_context, data, &n, strides, pow_auxdata);
    return x;
}

/* Integrator.adapt_h for one particle (the clamps pass NaN through, as
 * np.maximum / np.clip do). */
static double adapt_h(const Params *P, double h, double err)
{
    double factor = err < 1e-100 ? 1e-100 : err;
    factor = np_power(factor, P->exponent);
    factor = factor * P->safety;
    factor = factor < P->shrink_limit ? P->shrink_limit : factor;
    factor = factor > P->grow_limit ? P->grow_limit : factor;
    factor = factor * h;
    factor = factor < P->h_min ? P->h_min : factor;
    factor = factor > P->h_max ? P->h_max : factor;
    return factor;
}

void pk_adapt_h(const Params *P, int64_t n, const double *h,
                const double *err, double *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = adapt_h(P, h[i], err[i]);
}

typedef struct {
    double node_max[3];
    int64_t cell_max[3];
    int64_t nyz, nz;
    int64_t offset[8];    /* corner offsets, in doubles */
} Grid;

/* PoolSampler for one point of one slot. */
static void sample(const Grid *g, const Slot *s, const double *p,
                   double *v)
{
    double t[3], u[3];
    int64_t cell[3];
    for (int c = 0; c < 3; c++) {
        double x = (p[c] - s->lo[c]) * s->scale[c];
        x = x > g->node_max[c] ? g->node_max[c] : x;
        x = x < 0.0 ? 0.0 : x;
        int64_t i = (int64_t)x;
        /* The lower clamp only matters for NaN input; it keeps the
         * gather in bounds, as NumPy's mode="clip" take does. */
        i = i > g->cell_max[c] ? g->cell_max[c] : i;
        i = i < 0 ? 0 : i;
        cell[c] = i;
        t[c] = x - (double)i;
        u[c] = 1.0 - t[c];
    }
    const double uu = u[0] * u[1], ut = u[0] * t[1];
    const double tu = t[0] * u[1], tt = t[0] * t[1];
    const double w[8] = {uu * u[2], uu * t[2], ut * u[2], ut * t[2],
                         tu * u[2], tu * t[2], tt * u[2], tt * t[2]};
    const double *d = s->data
        + 3 * (cell[0] * g->nyz + cell[1] * g->nz + cell[2]);
    for (int c = 0; c < 3; c++) {
        double acc = 0.0;
        for (int e = 0; e < 8; e++)
            acc += w[e] * d[g->offset[e] + c];
        v[c] = acc;
    }
}

static double norm2(const double *r)
{
    return (r[0] * r[0] + r[2] * r[2]) + r[1] * r[1];
}

/* One DOPRI5 trial step.  K[0] must hold f(p) on entry; K[6] is
 * f(q) on return. */
static double d5_step(const Params *P, const Grid *g, const Slot *s,
                      const double *p, double h, double K[7][3],
                      double *q)
{
    double y[3], e[3], r[3];
    for (int c = 0; c < 3; c++)
        y[c] = (K[0][c] * A21) * h + p[c];
    sample(g, s, y, K[1]);
    for (int c = 0; c < 3; c++)
        y[c] = (K[0][c] * A31 + K[1][c] * A32) * h + p[c];
    sample(g, s, y, K[2]);
    for (int c = 0; c < 3; c++)
        y[c] = (K[0][c] * A41 + K[1][c] * A42 + K[2][c] * A43) * h + p[c];
    sample(g, s, y, K[3]);
    for (int c = 0; c < 3; c++)
        y[c] = (K[0][c] * A51 + K[1][c] * A52 + K[2][c] * A53
                + K[3][c] * A54) * h + p[c];
    sample(g, s, y, K[4]);
    for (int c = 0; c < 3; c++)
        y[c] = (K[0][c] * A61 + K[1][c] * A62 + K[2][c] * A63
                + K[3][c] * A64 + K[4][c] * A65) * h + p[c];
    sample(g, s, y, K[5]);
    for (int c = 0; c < 3; c++)
        q[c] = p[c] + (K[0][c] * B1 + K[2][c] * B3 + K[3][c] * B4
                       + K[4][c] * B5 + K[5][c] * B6) * h;
    sample(g, s, q, K[6]);
    for (int c = 0; c < 3; c++) {
        e[c] = (K[0][c] * E1 + K[2][c] * E3 + K[3][c] * E4 + K[4][c] * E5
                + K[5][c] * E6 + K[6][c] * E7) * h;
        double a = fabs(p[c]), b = fabs(q[c]);
        r[c] = e[c] / ((b > a ? b : a) * P->rtol + P->atol);
    }
    return sqrt(norm2(r) / 3.0);
}

/* Decomposition.locate_many for a point known to be inside the domain. */
static int64_t locate(const Params *P, const double *p)
{
    int64_t ijk[3];
    for (int c = 0; c < 3; c++) {
        int64_t i = (int64_t)floor((p[c] - P->dec_lo[c])
                                   / P->block_size[c]);
        i = i < P->blocks_per_axis[c] - 1 ? i : P->blocks_per_axis[c] - 1;
        ijk[c] = i > 0 ? i : 0;
    }
    return ijk[0] + P->blocks_per_axis[0]
        * (ijk[1] + P->blocks_per_axis[1] * ijk[2]);
}

static int outside(const double *p, const double *lo, const double *hi)
{
    return p[0] < lo[0] || p[0] > hi[0] || p[1] < lo[1] || p[1] > hi[1]
        || p[2] < lo[2] || p[2] > hi[2];
}

/* Advance k particles; returns the attempted step count, -1 when a
 * particle needs more than max_rounds rounds, or -2 when the vertex
 * buffer (vcap vertices) would overflow. */
int64_t pk_advance(const Params *P, const Slot *slots, int64_t k,
                   double *f, int64_t *n, double *verts, int64_t vcap)
{
    Grid g;
    const int64_t ny = P->dims[1], nz = P->dims[2];
    for (int c = 0; c < 3; c++) {
        g.node_max[c] = (double)P->dims[c] - 1.0;
        g.cell_max[c] = P->dims[c] - 2;
    }
    g.nyz = ny * nz;
    g.nz = nz;
    for (int e = 0; e < 8; e++)
        g.offset[e] = 3 * ((e >> 2) * ny * nz + ((e >> 1) & 1) * nz
                           + (e & 1));

    int64_t attempted = 0, nv = 0;
    for (int64_t i = 0; i < k; i++) {
        double *fi = f + 5 * i;
        int64_t *ni = n + 6 * i;
        double p[3] = {fi[0], fi[1], fi[2]}, q[3], K[7][3];
        double h = fi[3], time = fi[4];
        int64_t steps = ni[0], slot = ni[1], code = 0, exit_bid = -3;
        const int64_t v0 = nv;
        const Slot *s = &slots[slot];
        int have_k1 = 0;

        if (ni[2]) {
            if (nv >= vcap)
                return -2;
            for (int c = 0; c < 3; c++)
                verts[3 * nv + c] = p[c];
            nv++;
        }
        for (int64_t round = 1; round <= P->round_limit; round++) {
            if (round > P->max_rounds)
                return -1;
            attempted++;
            if (!have_k1)
                sample(&g, s, p, K[0]);
            const double err = d5_step(P, &g, s, p, h, K, q);
            const int accept = err <= 1.0;
            double d[3];
            for (int c = 0; c < 3; c++)
                d[c] = q[c] - p[c];
            const double ms = P->min_speed * h;
            const int stagnant = accept && norm2(d) < ms * ms;
            const int underflow = !accept && h <= P->h_min_edge;
            /* FSAL: an accepted step's last stage is f at the new
             * position; a rejected step retries from the same point. */
            have_k1 = 1;
            if (accept) {
                for (int c = 0; c < 3; c++) {
                    p[c] = q[c];
                    K[0][c] = K[6][c];
                }
                time = time + h;
                steps++;
                if (nv >= vcap)
                    return -2;
                for (int c = 0; c < 3; c++)
                    verts[3 * nv + c] = p[c];
                nv++;
            }
            h = adapt_h(P, h, err);

            code = 0;
            if (accept) {
                if (outside(p, s->blo, s->bhi))
                    code = 1;
                if (steps >= P->max_steps)
                    code = 3;
                if (outside(p, P->dom_lo, P->dom_hi))
                    code = 2;
            }
            if (underflow)
                code = 5;
            if (stagnant)
                code = 4;
            if (code == 1) {
                /* Crossing: keep going if the destination is pooled
                 * (the last slot holding it, as BlockPool.slot_of). */
                const int64_t bid = locate(P, p);
                int64_t to = -1;
                for (int64_t j = P->n_slots - 1; j >= 0; j--)
                    if (slots[j].block_id == bid) {
                        to = j;
                        break;
                    }
                if (to >= 0) {
                    slot = to;
                    s = &slots[slot];
                    have_k1 = 0;
                    code = 0;
                } else {
                    exit_bid = bid;
                }
            }
            if (code != 0)
                break;
        }
        fi[0] = p[0];
        fi[1] = p[1];
        fi[2] = p[2];
        fi[3] = h;
        fi[4] = time;
        ni[0] = steps;
        ni[1] = slot;
        ni[3] = code;
        ni[4] = exit_bid;
        ni[5] = nv - v0;
    }
    return attempted;
}
