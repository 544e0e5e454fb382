"""C source for the runtime-compiled (cffi) backend.

One translation unit holding the row kernels of the pair phases, the
fused h iteration, the neighbour search, the tree's multipole moments and
the Barnes-Hut gravity walk.
The neighbour list (``int64`` row offsets, one ``int32`` column) is the
only per-pair input of any op and no op returns anything per pair but a
list: separations, kernel values and gradients are recomputed where they
are used, one CSR row at a time, in row buffers carved from a scratch
block the caller allocates per call (sized by the longest row; the
gravity walk mallocs its interaction lists per call and grows them to
the longest list met, the tree walk grows the block its rows go to and
hands it over as the list's column — the unit has no static or global
scratch, so any number of threads and simulations call it concurrently).

Design notes:

* A row kernel is a sequence of short loops over the pairs of one row.
  Each loop is branch-free and reads and writes row buffers (plus gathers
  from the particle arrays), which is what lets the compiler vectorise
  it across pairs; ``RP_EACH`` tells it the buffers never overlap.  Row
  buffers of axes a run does not have stay zero (the caller hands in a
  zeroed block), so the arithmetic is written once, in 3-D.
* The pair phases do each unordered pair once, by ordered scatter.  They
  read each row's lower half ``j <= i``, self pair last (the list the h
  iteration emits; of a full symmetric list, each row's prefix), and row
  ``i`` computes geometry, both sides' kernel factors and gradients once
  per pair.  Its own terms land in row buffers and are summed by a
  scalar loop in row order; each partner's term — the partner's own
  expression, in a statement of its own, on the exactly negated ``dx``
  and ``v_ij`` — is added into ``out[j]``.  Rows run in ascending order,
  so ``out[j]`` receives its terms in exactly the order of a gather over
  the full row, the order ``np.bincount`` applies its weights: its lower
  entries and self, then ``k > j`` ascending.  A thread slice ``[lo,
  hi)`` writes only its own rows: after them it reads, ascending, the
  halo rows ``[hi, end)`` whose lower halves reach back into it (``end``
  is bounded by the list's bandwidth) for their terms into ``[lo, hi)``
  alone — so a row's sums do not depend on how rows are sliced over
  threads, and no reassociation flag is needed.  Scatter loops are plain
  loops, not ``RP_EACH`` (there is no vector scatter to vectorise them
  into).  No ``-ffast-math`` anywhere; the build's ``-fno-math-errno
  -fno-trapping-math`` change no value (they let ``sqrt`` and the
  selects below become vector instructions).
* The minimum-image convention is one expression for every box: per-axis
  ``psel`` (span or 0) and ``pdiv`` (span or inf) turn the periodic wrap
  into ``dx -= psel * rint(dx / pdiv)``, a mirror of
  ``out -= span * np.round(out / span)`` (``np.round`` at 0 decimals is
  ``rint``: round half to even); open axes skip it.
* The neighbour-count predicate ``r <= 2*h[i]`` reads the same ``r`` as
  the numpy h iteration and the update factor comes from a table the
  Python update function fills, so ``h`` takes the same trajectory on
  every backend, bit for bit.  Kernel values, gradients and forces agree
  with numpy to a few ulp, gated by the documented backend tolerance.
* ``sin``/``cos`` for the sinc-family kernels use the shared Taylor
  polynomials (:mod:`repro.backend.poly`) after an exact split-at-pi/2
  reduction; integer powers use multiply chains.  The compiler may
  contract ``a*b + c`` into one FMA in the row kernels (an ulp, inside
  the backend tolerance); the last section of the unit — neighbour
  search, node moments and the gravity walk — switches that off, because
  there an ulp decides whether a pair on the cutoff is a neighbour, or a
  node on the opening angle is opened, and the moments are numpy's to
  the bit.
"""

from __future__ import annotations

import itertools

from .poly import COS_COEFFS, PI_LO, SIN_COEFFS

__all__ = [
    "CDEF", "GRAVITY_LIST_CAP0", "SCRATCH_ROWS", "SOURCE", "source_fingerprint",
]

#: Declarations for ``ffi.cdef``.  Every pair op takes the list as
#: ``offsets`` (int64) + ``indices`` (int32) and the rows ``[lo, hi)`` to
#: run over (the pair phases also ``end``: rows ``[hi, end)`` are their
#: halo), ``scratch``/``cap``: a zeroed block of row buffers, each
#: ``cap`` >= the longest row.
CDEF = """
int rp_adapt(const double *x, double *h, const double *budget,
             const int64_t *offsets, const int32_t *indices, int64_t n,
             int dim, const double *psel, const double *pdiv,
             const double *table, int64_t n_target, double tolerance,
             double step, double h_min, double h_max, int max_sweeps,
             double support, double *scratch, int64_t cap, int8_t *state,
             int32_t *sweeps, int64_t *cut_offsets, int32_t *cut,
             int64_t cut_cap);
void rp_density(const double *x, const double *h, const double *wgt,
                const int64_t *offsets, const int32_t *indices, int64_t lo,
                int64_t hi, int64_t end, int dim, const double *psel,
                const double *pdiv, int kind, double p1, double sigma,
                int dwdh, const double *m, const double *rho, double rcond,
                double *scratch, int64_t cap, double *out, double *tau,
                double *cmat);
void rp_div_curl(const double *x, const double *v, const double *h,
                 const double *m, const int64_t *offsets,
                 const int32_t *indices, int64_t lo, int64_t hi,
                 int64_t end, int dim, const double *psel,
                 const double *pdiv, int kind, double p1, double sigma,
                 double *scratch, int64_t cap, double *divsum,
                 double *curlsum);
double rp_forces(const double *x, const double *v, const double *h,
                 const double *m, const double *rho, const double *p_over,
                 const double *cs, const int64_t *offsets,
                 const int32_t *indices, int64_t lo, int64_t hi, int64_t end,
                 int dim, const double *psel, const double *pdiv, int kind,
                 double p1, double sigma, const double *cmat,
                 const double *bals, double alpha, double beta, double eta2,
                 double support, double *scratch, int64_t cap, double *out_a,
                 double *out_s1, double *out_s2);
void rp_node_bounds(const double *xs, const double *rs, int64_t n, int dim,
                    int64_t n_nodes, const int64_t *child_start,
                    const int64_t *child_count, const int64_t *pstart,
                    const int64_t *pend, double *lo, double *hi,
                    double *rmax);
typedef struct {
    int32_t *buf;
    int64_t len, cap;
} rp_rows;
void rp_free(void *p);
int rp_walk(const double *xs, const double *rs, int64_t n, int dim,
            int symmetric, const double *psel, const double *pdiv,
            int64_t n_nodes, const int64_t *child_start,
            const int64_t *child_count, const int64_t *pstart,
            const int64_t *pend, const int64_t *order, const double *lo,
            const double *hi, const double *rmax, int include_self,
            const int8_t *want, int64_t *offsets, rp_rows *rows);
void rp_sort_rows(const int64_t *offsets, int64_t n, int32_t *indices);
int rp_pairs_within(const double *xw, const double *radii,
                    const int64_t *offsets, const int32_t *indices,
                    int64_t n, int dim, const double *psel,
                    const double *pdiv, double *scratch, int64_t cap,
                    int64_t *new_offsets, int32_t *out);
int rp_merge_rows(const int64_t *a_offsets, const int32_t *a_indices,
                  const int64_t *b_offsets, const int32_t *b_indices,
                  const int8_t *redo, int64_t n, int64_t *out_offsets,
                  int32_t *out);
void rp_node_moments(const double *x, const double *m, const double *origin,
                     int64_t n_nodes, const int64_t *child_start,
                     const int64_t *child_count, const int64_t *pstart,
                     const int64_t *pend, const int64_t *order, int rank,
                     double *prefix, int64_t *bound, double *mass,
                     double *com, double *m2, double *m3, double *m4);
int rp_gravity(const double *x, const double *m, const int64_t *leaves,
               int64_t n_leaves, int64_t n_nodes, const double *center,
               const double *half, const int64_t *child_start,
               const int64_t *child_count, const int64_t *pstart,
               const int64_t *pend, const int64_t *order,
               const double *mass, const double *com, const double *m2,
               const double *m3, const double *m4, int rank, double theta,
               double g_const, double eps2, double *acc, double *phi,
               int64_t *counts);
"""

#: Entries a gravity interaction list has room for before it first grows
#: (it doubles until the longest list of the call fits).
GRAVITY_LIST_CAP0 = 256

#: Index classes of the packed symmetric moments, in the order the M2P
#: loop forms their monomials: pairs xx yy zz xy xz yz, triples xxx yyy
#: zzz xxy xxz xyy yyz xzz yzz xyz.
_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
_TRIPLES = (
    (0, 0, 0), (1, 1, 1), (2, 2, 2), (0, 0, 1), (0, 0, 2),
    (0, 1, 1), (1, 1, 2), (0, 2, 2), (1, 2, 2), (0, 1, 2),
)


def _class_table(name: str, classes) -> str:
    """``name[flat index]`` = the class of that (row-major) index tuple."""
    rank = len(classes[0])
    cls = [
        classes.index(tuple(sorted(idx)))
        for idx in itertools.product(range(3), repeat=rank)
    ]
    return f"static const int {name}[{len(cls)}] = {{{', '.join(map(str, cls))}}};"


_GRAVITY_TABLES = "\n".join([
    f"#define RP_LIST_CAP0 {GRAVITY_LIST_CAP0}",
    _class_table("RP_PAIR_CLASS", _PAIRS),
    _class_table("RP_TRIPLE_CLASS", _TRIPLES),
    "",
])

#: Row buffers (of ``cap`` doubles each) the ops carve from ``scratch``.
SCRATCH_ROWS = {
    "rp_adapt": 4,
    "rp_density": 15,
    "rp_div_curl": 22,
    "rp_forces": 38,
    "rp_pairs_within": 4,
}


def _literals(name: str, coeffs) -> str:
    return "\n".join(
        f"static const double {name}{k + 1} = {c!r};"
        for k, c in enumerate(coeffs)
    )


_HELPERS = f"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>

static const double RP_PI_LO = {PI_LO!r};

{_literals("RP_S", SIN_COEFFS)}
{_literals("RP_C", COS_COEFFS)}

/* Inlined at call sites that pass literals, so the switch or the loops
 * over the axes they steer fold away and the loop around the call
 * vectorises. */
#if defined(__GNUC__)
#define RP_SPECIALIZE static inline __attribute__((always_inline))
#else
#define RP_SPECIALIZE static inline
#endif

/* One loop over the pairs of a row.  Row buffers overlap neither each
 * other nor the particle arrays; ivdep lets the vectoriser rely on that
 * instead of versioning every loop for aliasing (or giving up). */
#if defined(__GNUC__) && !defined(__clang__)
#define RP_EACH(k, len) \\
    _Pragma("GCC ivdep") for (int64_t k = 0; k < (len); ++k)
#else
#define RP_EACH(k, len) for (int64_t k = 0; k < (len); ++k)
#endif

/* sin(z) for z in [0, pi/2]: z + z*z2*Horner(S, z2). */
static inline double rp_sinpoly(double z)
{{
    const double z2 = z * z;
    double p = RP_S10;
    p = RP_S9 + z2 * p;
    p = RP_S8 + z2 * p;
    p = RP_S7 + z2 * p;
    p = RP_S6 + z2 * p;
    p = RP_S5 + z2 * p;
    p = RP_S4 + z2 * p;
    p = RP_S3 + z2 * p;
    p = RP_S2 + z2 * p;
    p = RP_S1 + z2 * p;
    return z + (z * z2) * p;
}}

/* cos(z) for z in [0, pi/2]: 1 + z2*Horner(C, z2). */
static inline double rp_cospoly(double z)
{{
    const double z2 = z * z;
    double p = RP_C10;
    p = RP_C9 + z2 * p;
    p = RP_C8 + z2 * p;
    p = RP_C7 + z2 * p;
    p = RP_C6 + z2 * p;
    p = RP_C5 + z2 * p;
    p = RP_C4 + z2 * p;
    p = RP_C3 + z2 * p;
    p = RP_C2 + z2 * p;
    p = RP_C1 + z2 * p;
    return 1.0 + z2 * p;
}}

/* h**n for n in 1..4. */
static inline double rp_hpow(double h, int n)
{{
    double r = h;
    r = n > 1 ? r * h : r;
    r = n > 2 ? r * h : r;
    r = n > 3 ? r * h : r;
    return r;
}}

/* Kernel shape f(q) and f'(q) of the polynomial families, branch-free.
 * kind: 0 = M4 cubic spline, 1/2/3 = Wendland C2/C4/C6 (low = the 1-D
 * form); kind and low are literals at every call site.  Each case
 * mirrors the numpy shape functions' operation order; for q >= 2 both
 * are (+-)0 because every term carries a factor max(1 - q/2, 0). */
RP_SPECIALIZE void rp_shape(const int kind, const int low, double q,
                            double *f, double *fp)
{{
    const double l = 0.5 * q;
    const double p = 1.0 - l;
    const double pm = p > 0.0 ? p : 0.0;
    const double p2 = pm * pm;
    const double p4 = p2 * p2;
    switch (kind) {{
    case 0: {{ /* M4 cubic spline: 2 - q of the outer piece is 2*pm */
        const double t = pm + pm;
        const int inner = q < 1.0;
        *f = inner ? (1.0 - (1.5 * q) * q) + (((0.75 * q) * q) * q)
                   : 0.25 * ((t * t) * t);
        *fp = inner ? (-3.0 * q) + ((2.25 * q) * q) : -0.75 * (t * t);
        break;
    }}
    case 1: /* Wendland C2 */
        if (low) {{
            *f = (p2 * pm) * (1.0 + 3.0 * l);
            *fp = 0.5 * ((-12.0 * l) * p2);
        }} else {{
            *f = (p2 * p2) * (1.0 + 4.0 * l);
            *fp = 0.5 * ((-20.0 * l) * (p2 * pm));
        }}
        break;
    case 2: /* Wendland C4 */
        if (low) {{
            *f = (p4 * pm) * ((1.0 + 5.0 * l) + (8.0 * l) * l);
            *fp = 0.5 * ((-p4) * ((14.0 * l) + (56.0 * l) * l));
        }} else {{
            *f = (p4 * p2) * ((1.0 + 6.0 * l) + ((35.0 / 3.0) * l) * l);
            *fp = 0.5 * ((-(p4 * pm))
                         * (((56.0 / 3.0) * l) + ((280.0 / 3.0) * l) * l));
        }}
        break;
    default: /* Wendland C6 */
        if (low) {{
            *f = ((p4 * p2) * pm)
                 * (((1.0 + 7.0 * l) + (19.0 * l) * l)
                    + 21.0 * ((l * l) * l));
            *fp = 0.5 * ((((-6.0) * (p4 * p2)) * l)
                         * (((35.0 * l) * l + (18.0 * l)) + 3.0));
        }} else {{
            *f = (p4 * p4)
                 * (((1.0 + 8.0 * l) + (25.0 * l) * l)
                    + 32.0 * ((l * l) * l));
            *fp = 0.5 * (((((-22.0) * ((p4 * p2) * pm)) * l))
                         * (((16.0 * l) * l + (7.0 * l)) + 1.0));
        }}
        break;
    }}
}}

/* f = |s|^p1 and f' = p1 |s|^(p1-1) sgn(s) ds/dq of the sinc family for
 * a row of q, s = sin(x)/x at x = pi*q/2 in (0, pi): sin and cos by
 * reflection about pi/2 with a two-part pi, so relative accuracy
 * survives at both ends.  fp = NULL skips f' and the cosine it needs.
 * A small integer p1 is raised by the binary multiply chain, run over
 * the row one bit at a time; any other by libm pow.  At q = 0 and
 * q >= 2 the arithmetic runs on (NaN, garbage) and the selects of the
 * last loop discard it.  Chunked over stack buffers: a row may be
 * longer than any of them. */
#define RP_CHUNK 256
static void rp_sinc_row(double p1, const double *q, int64_t len, double *f,
                        double *fp)
{{
    const int chain = p1 == rint(p1) && p1 >= 1.0 && p1 <= 33.0;
    double a[RP_CHUNK], g[RP_CHUNK], base[RP_CHUNK], sd[RP_CHUNK];
    for (int64_t c = 0; c < len; c += RP_CHUNK) {{
        const int64_t m = len - c < RP_CHUNK ? len - c : RP_CHUNK;
        const double *qc = q + c;
        double *fc = f + c;
        if (fp) {{
            RP_EACH(k, m) {{
                const double xv = M_PI * (0.5 * qc[k]);
                const int refl = xv > M_PI_2;
                const double z = refl ? (M_PI - xv) + RP_PI_LO : xv;
                const double cz = rp_cospoly(z);
                const double s = rp_sinpoly(z) / xv;
                const double dsdq =
                    (0.5 * M_PI) * (((refl ? -cz : cz) - s) / xv);
                a[k] = fabs(s);
                sd[k] = ((double)(s > 0.0) - (double)(s < 0.0)) * dsdq;
            }}
        }} else {{
            RP_EACH(k, m) {{
                const double xv = M_PI * (0.5 * qc[k]);
                const double z = xv > M_PI_2 ? (M_PI - xv) + RP_PI_LO : xv;
                a[k] = fabs(rp_sinpoly(z) / xv);
            }}
        }}
        RP_EACH(k, m) {{
            base[k] = a[k];
            g[k] = 1.0;
        }}
        if (chain) {{
            for (int e = (int)p1 - 1; e > 0; e >>= 1) {{
                if (e & 1)
                    RP_EACH(k, m) g[k] *= base[k];
                if (e >> 1)
                    RP_EACH(k, m) base[k] *= base[k];
            }}
        }} else {{
            for (int64_t k = 0; k < m; ++k)
                g[k] = pow(a[k], p1 - 1.0);
        }}
        RP_EACH(k, m) {{
            const int inside = (qc[k] > 0.0) & (qc[k] < 2.0);
            fc[k] = inside ? g[k] * a[k] : (qc[k] == 0.0 ? 1.0 : 0.0);
        }}
        if (fp) {{
            double *fpc = fp + c;
            RP_EACH(k, m) {{
                const int inside = (qc[k] > 0.0) & (qc[k] < 2.0);
                fpc[k] = inside ? (p1 * g[k]) * sd[k] : 0.0;
            }}
        }}
    }}
}}

/* f and f' of a whole row of q; kind 4 = sinc^p1, else rp_shape's
 * (p1 = the Wendland 1-D/3-D shape hint).  fp = NULL asks for f alone:
 * the sinc row then skips f', the polynomial shapes drop it. */
static void rp_row_shape(int kind, double p1, const double *q, int64_t len,
                         double *f, double *fp)
{{
#define RP_SHAPE_LOOP(KIND, LOW)                                    \
    if (fp)                                                         \
        RP_EACH(k, len) rp_shape(KIND, LOW, q[k], f + k, fp + k);   \
    else                                                            \
        RP_EACH(k, len) {{                                          \
            double dropped;                                         \
            rp_shape(KIND, LOW, q[k], f + k, &dropped);             \
        }}
#define RP_SHAPE_ROW(KIND)                                          \
    if (p1 == 1.0) {{                                               \
        RP_SHAPE_LOOP(KIND, 1);                                     \
    }} else {{                                                      \
        RP_SHAPE_LOOP(KIND, 0);                                     \
    }}
    switch (kind) {{
    case 0:
        RP_SHAPE_ROW(0);
        break;
    case 1:
        RP_SHAPE_ROW(1);
        break;
    case 2:
        RP_SHAPE_ROW(2);
        break;
    case 3:
        RP_SHAPE_ROW(3);
        break;
    default:
        rp_sinc_row(p1, q, len, f, fp);
        break;
    }}
#undef RP_SHAPE_ROW
#undef RP_SHAPE_LOOP
}}

/* Geometry of row i: minimum-image separations dx[d][k] = x_i - x_j of
 * the neighbours row[0..len) and their distances r — pair_geometry's
 * arithmetic: subtract, wrap the periodic axes, r = sqrt(sum dx*dx) in
 * axis order.  dim is a literal at the call sites below, so the loops
 * over the axes unroll inside the loops over the pairs. */
RP_SPECIALIZE void rp_row_geom_dim(const int dim, const double *x, int64_t i,
                                   const int32_t *row, int64_t len,
                                   const double *psel, const double *pdiv,
                                   double *const *dx, double *r)
{{
    RP_EACH(k, len) {{
        const double *xj = x + (int64_t)row[k] * dim;
        for (int d = 0; d < dim; ++d)
            dx[d][k] = x[i * dim + d] - xj[d];
    }}
    for (int d = 0; d < dim; ++d) {{
        double *t = dx[d];
        const double ps = psel[d], pd = pdiv[d];
        if (ps != 0.0)
            RP_EACH(k, len) t[k] -= ps * rint(t[k] / pd);
    }}
    RP_EACH(k, len) {{
        double r2 = dx[0][k] * dx[0][k];
        for (int d = 1; d < dim; ++d)
            r2 += dx[d][k] * dx[d][k];
        r[k] = sqrt(r2);
    }}
}}

static void rp_row_geom(const double *x, int64_t i, const int32_t *row,
                        int64_t len, int dim, const double *psel,
                        const double *pdiv, double *const *dx, double *r)
{{
    if (dim == 3)
        rp_row_geom_dim(3, x, i, row, len, psel, pdiv, dx, r);
    else if (dim == 2)
        rp_row_geom_dim(2, x, i, row, len, psel, pdiv, dx, r);
    else
        rp_row_geom_dim(1, x, i, row, len, psel, pdiv, dx, r);
}}

/* The first four row buffers of every op: three separation axes, r. */
#define RP_GEOM_BUFFERS(scratch, cap)                                  \\
    double *const dx[3] = {{scratch, scratch + cap, scratch + 2 * cap}}; \\
    double *const r = scratch + 3 * cap
"""

_OPS = """
/* First k in [0, len) with row[k] >= v, len if none (rows ascend). */
static inline int64_t rp_lower_bound(const int32_t *row, int64_t len,
                                     int64_t v)
{
    int64_t a = 0, b = len;
    while (a < b) {
        const int64_t mid = (a + b) >> 1;
        if (row[mid] < v)
            a = mid + 1;
        else
            b = mid;
    }
    return a;
}

/* The entries of row i a pair-once op over rows [lo, hi) reads, as
 * (*row, length): of a row it owns (i < hi) the lower half j <= i, self
 * pair last — the whole row of a half list, the prefix of a full
 * symmetric one; of a halo row (i >= hi) the entries inside [lo, hi). */
static inline int64_t rp_pair_row(const int64_t *offsets,
                                  const int32_t *indices, int64_t i,
                                  int64_t lo, int64_t hi,
                                  const int32_t **row)
{
    const int32_t *full = indices + offsets[i];
    const int64_t len = offsets[i + 1] - offsets[i];
    if (i < hi) {
        *row = full;
        return rp_lower_bound(full, len, i + 1);
    }
    const int64_t k0 = rp_lower_bound(full, len, lo);
    *row = full + k0;
    return rp_lower_bound(full, len, hi) - k0;
}

/* The h iteration, row by row: a particle's count reads only its own h
 * and row, so each row iterates to its own stop off one geometry pass:
 *     c = #{k : r_k <= 2h};  h' = clip(h * table[c], h_min, h_max);
 *     stop (state 1) if |c - n_target| / n_target <= tolerance, else
 *     (state 2) if |h' - h| <= step * h, else h = h'
 * keeping h on a stop; state 3 once max_sweeps counts ran.  table[c] is
 * the update factor, filled by the Python update function (no pow here,
 * the product is the reference's to the bit); step = tolerance / dim.
 * Rows finished on entry (state != 0) are skipped; a row whose h leaves
 * its budget stays at state 0, on its last sweep too (its list no longer
 * holds its neighbours: the caller searches again, and a row at the cap
 * then stops on entry).  h, state and sweeps change in place.
 *
 * With cut != NULL the call also emits the lower half of the support cut
 * of the h it leaves: rows ascend, so once row i is done every h_j with
 * j <= i is final, and off the row's buffered r it writes {j <= i : r <=
 * support * max(h_i, h_j)} (every other pair adds an exact 0.0 to every
 * pair sum) in row order, packed behind row i - 1 (cut_offsets[0] must
 * be 0).  Returns 1 if the lower halves overrun the cut_cap entries of
 * cut (the list is not symmetric), else 0. */
int rp_adapt(const double *x, double *h, const double *budget,
             const int64_t *offsets, const int32_t *indices, int64_t n,
             int dim, const double *psel, const double *pdiv,
             const double *table, int64_t n_target, double tolerance,
             double step, double h_min, double h_max, int max_sweeps,
             double support, double *scratch, int64_t cap, int8_t *state,
             int32_t *sweeps, int64_t *cut_offsets, int32_t *cut,
             int64_t cut_cap)
{
    RP_GEOM_BUFFERS(scratch, cap);
    for (int64_t i = 0; i < n; ++i) {
        const int32_t *row = indices + offsets[i];
        const int64_t len = offsets[i + 1] - offsets[i];
        const int64_t half = cut ? rp_lower_bound(row, len, i + 1) : 0;
        int st = state[i];
        if (st && !cut)
            continue;
        rp_row_geom(x, i, row, st ? half : len, dim, psel, pdiv, dx, r);
        double hc = h[i];
        int s = sweeps[i];
        const int ran = !st;
        while (!st) {
            if (s == max_sweeps) {
                st = 3;
                break;
            }
            const double rmax = 2.0 * hc;
            int64_t c = 0;
            RP_EACH(k, len) c += (r[k] <= rmax);
            ++s;
            double hn = hc * table[c];
            hn = hn < h_min ? h_min : hn;
            hn = hn > h_max ? h_max : hn;
            if (fabs((double)(c - n_target)) / (double)n_target <= tolerance)
                st = 1;
            else if (fabs(hn - hc) <= step * hc)
                st = 2;
            else if ((hc = hn) > budget[i])
                break;
        }
        if (ran) {
            h[i] = hc;
            state[i] = (int8_t)st;
            sweeps[i] = s;
        }
        if (!cut)
            continue;
        if (cut_offsets[i] + half > cut_cap)
            return 1;
        double *keep = dx[0];
        RP_EACH(k, half) {
            const double hj = h[row[k]];
            keep[k] = r[k] <= (hc > hj ? hc : hj) * support;
        }
        int32_t *dst = cut + cut_offsets[i];
        int64_t c = 0;
        for (int64_t k = 0; k < half; ++k) {
            dst[c] = row[k];
            c += keep[k] != 0.0;
        }
        cut_offsets[i + 1] = cut_offsets[i] + c;
    }
    return 0;
}

/* Adds w * (dx_a dx_b) of pair k to the moments o (xx xy xz yy yz zz):
 * even in dx, so the same for the partner. */
static inline void rp_add_moments(double *o, double *const *dx, int64_t k,
                                  double w)
{
    o[0] += (dx[0][k] * dx[0][k]) * w;
    o[1] += (dx[0][k] * dx[1][k]) * w;
    o[2] += (dx[0][k] * dx[2][k]) * w;
    o[3] += (dx[1][k] * dx[1][k]) * w;
    o[4] += (dx[1][k] * dx[2][k]) * w;
    o[5] += (dx[2][k] * dx[2][k]) * w;
}

/* The regularised, inverted IAD matrix o of one row from its moments
 * (xx xy xz yy yz zz): fmax(trace*rcond, 1e-300) on the diagonal (the
 * reference expression), then adjugate/det for 2x2/3x3, the reciprocal
 * in 1-D — LAPACK's to rounding, covered by the backend tolerance. */
static void rp_iad_invert(const double *mom, int dim, double rcond,
                          double *o)
{
    double a = mom[0], b = mom[1], c = mom[2];
    double e = mom[3], g = mom[4], t = mom[5];
    if (dim == 1) {
        o[0] = 1.0 / (a + fmax(a * rcond, 1e-300));
    } else if (dim == 2) {
        const double reg = fmax((a + e) * rcond, 1e-300);
        a += reg;
        e += reg;
        const double det = a * e - b * b;
        o[0] = e / det;
        o[1] = -b / det;
        o[2] = -b / det;
        o[3] = a / det;
    } else {
        const double reg = fmax((a + e + t) * rcond, 1e-300);
        a += reg;
        e += reg;
        t += reg;
        const double A = e * t - g * g;
        const double B = g * c - b * t;
        const double C = b * g - e * c;
        const double det = a * A + b * B + c * C;
        o[0] = A / det;
        o[1] = (c * g - b * t) / det;
        o[2] = (b * g - c * e) / det;
        o[3] = B / det;
        o[4] = (a * t - c * c) / det;
        o[5] = (c * b - a * g) / det;
        o[6] = C / det;
        o[7] = (b * c - a * g) / det;
        o[8] = (a * e - b * b) / det;
    }
}

/* Row sums of wgt[j] * W(r_ij, h_i) (density, kappa) or, with dwdh, of
 * wgt[j] * dW/dh(r_ij, h_i) (the grad-h sum): W = (sigma/h^dim) f(q),
 * dW/dh = -(sigma/h^(dim+1)) (dim f + q f'), q = r/h_i.  With cmat !=
 * NULL also the IAD matrices of the rows, off the same W: the moments
 *     tau[ab] = sum_j (dx_a dx_b) ((m_j/rho_j) W(r_ij, h_i))
 * (the six upper entries, summed side by side), six per row in tau,
 * then inverted by rp_iad_invert once every term is in. */
void rp_density(const double *x, const double *h, const double *wgt,
                const int64_t *offsets, const int32_t *indices, int64_t lo,
                int64_t hi, int64_t end, int dim, const double *psel,
                const double *pdiv, int kind, double p1, double sigma,
                int dwdh, const double *m, const double *rho, double rcond,
                double *scratch, int64_t cap, double *out, double *tau,
                double *cmat)
{
    RP_GEOM_BUFFERS(scratch, cap);
    /* q, f, f' hold the row's side (q = r/h_i) then the partners'
     * (q = r/h_j) back to back: one shape pass serves both.  Only the
     * grad-h sum reads f'. */
    double *q = scratch + 4 * cap, *f = q + 2 * cap, *fp = f + 2 * cap;
    double *hj = fp + 2 * cap, *t = hj + cap, *tp = t + cap;
    double *w = tp + cap, *wp = w + cap;
    for (int64_t i = lo; i < end; ++i) {
        const int32_t *row;
        const int64_t len = rp_pair_row(offsets, indices, i, lo, hi, &row);
        const int own = i < hi;
        const double hi_ = h[i], wi = wgt[i];
        rp_row_geom(x, i, row, len, dim, psel, pdiv, dx, r);
        RP_EACH(k, len) {
            hj[k] = h[row[k]];
            q[k] = r[k] / hi_;
            q[len + k] = r[k] / hj[k];
        }
        rp_row_shape(kind, p1, q, 2 * len, f, dwdh ? fp : NULL);
        const double *qj = q + len, *fj = f + len, *fpj = fp + len;
        /* Row i's terms and, in statements of their own, the partner's. */
        if (dwdh) {
            const double wn1 = sigma / rp_hpow(hi_, dim + 1);
            RP_EACH(k, len)
                t[k] = wgt[row[k]]
                       * ((-wn1) * ((double)dim * f[k] + q[k] * fp[k]));
            RP_EACH(k, len)
                tp[k] = wi
                        * ((-(sigma / rp_hpow(hj[k], dim + 1)))
                           * ((double)dim * fj[k] + qj[k] * fpj[k]));
        } else {
            const double wn = sigma / rp_hpow(hi_, dim);
            RP_EACH(k, len) {
                t[k] = wgt[row[k]] * (wn * f[k]);
                tp[k] = wi * ((sigma / rp_hpow(hj[k], dim)) * fj[k]);
            }
        }
        if (cmat) {
            const double wn = sigma / rp_hpow(hi_, dim), vi = m[i] / rho[i];
            RP_EACH(k, len) {
                w[k] = (m[row[k]] / rho[row[k]]) * (wn * f[k]);
                wp[k] = vi * ((sigma / rp_hpow(hj[k], dim)) * fj[k]);
            }
        }
        if (own) {
            double acc = 0.0;
            for (int64_t k = 0; k < len; ++k)
                acc += t[k];
            out[i - lo] = acc;
        }
        if (own && cmat) {
            double *o = tau + (i - lo) * 6;
            memset(o, 0, 6 * sizeof *o);
            for (int64_t k = 0; k < len; ++k)
                rp_add_moments(o, dx, k, w[k]);
        }
        for (int64_t k = 0; k < len; ++k) {
            const int64_t j = row[k];
            if (j < lo || j >= i)
                continue;
            out[j - lo] += tp[k];
            if (cmat)
                rp_add_moments(tau + (j - lo) * 6, dx, k, wp[k]);
        }
    }
    if (cmat)
        for (int64_t i = lo; i < hi; ++i)
            rp_iad_invert(tau + (i - lo) * 6, dim, rcond,
                          cmat + (i - lo) * dim * dim);
}

/* Gradient scale dW/dr / r = ((sigma/hs^(dim+1)) f'(r/hs)) / r of a row
 * (0 at r = 0), hs = each neighbour's hj[k], or the row's own hi_ when
 * hj is NULL. */
static void rp_row_grad_scale(const double *r, const double *fp,
                              double hi_, const double *hj, int64_t len,
                              int dim, double sigma, double *gs)
{
    if (hj) {
        RP_EACH(k, len)
            gs[k] = r[k] > 0.0
                        ? ((sigma / rp_hpow(hj[k], dim + 1)) * fp[k]) / r[k]
                        : 0.0;
    } else {
        const double wn1 = sigma / rp_hpow(hi_, dim + 1);
        RP_EACH(k, len) gs[k] = r[k] > 0.0 ? (wn1 * fp[k]) / r[k] : 0.0;
    }
}

/* Velocity divergence/curl pair sums with standard gradients
 * grad = dx * (dW/dr / r): divsum = sum m_j v_ij . grad, curlsum =
 * sum m_j v_ij x grad (all three components; in 2-D only z is non-zero).
 * Python finishes the normalisation by rho. */
void rp_div_curl(const double *x, const double *v, const double *h,
                 const double *m, const int64_t *offsets,
                 const int32_t *indices, int64_t lo, int64_t hi,
                 int64_t end, int dim, const double *psel,
                 const double *pdiv, int kind, double p1, double sigma,
                 double *scratch, int64_t cap, double *divsum,
                 double *curlsum)
{
    RP_GEOM_BUFFERS(scratch, cap);
    double *q = scratch + 4 * cap, *f = q + 2 * cap, *gs = f + 2 * cap;
    double *hj = gs + 2 * cap, *td = hj + cap, *tdp = td + cap;
    double *const vij[3] = {tdp + cap, tdp + 2 * cap, tdp + 3 * cap};
    double *const tc[3] = {tdp + 4 * cap, tdp + 5 * cap, tdp + 6 * cap};
    double *const tcp[3] = {tdp + 7 * cap, tdp + 8 * cap, tdp + 9 * cap};
    for (int64_t i = lo; i < end; ++i) {
        const int32_t *row;
        const int64_t len = rp_pair_row(offsets, indices, i, lo, hi, &row);
        const int own = i < hi;
        const double hi_ = h[i], mi = m[i];
        rp_row_geom(x, i, row, len, dim, psel, pdiv, dx, r);
        RP_EACH(k, len) {
            hj[k] = h[row[k]];
            q[k] = r[k] / hi_;
            q[len + k] = r[k] / hj[k];
        }
        rp_row_shape(kind, p1, q, 2 * len, f, gs);
        rp_row_grad_scale(r, gs, hi_, 0, len, dim, sigma, gs);
        rp_row_grad_scale(r, gs + len, 0.0, hj, len, dim, sigma, gs + len);
        for (int d = 0; d < dim; ++d)
            RP_EACH(k, len)
                vij[d][k] = v[i * dim + d] - v[(int64_t)row[k] * dim + d];
        /* Row i's terms, then in statements of their own the partner's,
         * on the negated dx and v_ij. */
        RP_EACH(k, len) {
            const double mj = m[row[k]];
            const double g0 = dx[0][k] * gs[k], g1 = dx[1][k] * gs[k];
            const double g2 = dx[2][k] * gs[k];
            const double v0 = vij[0][k], v1 = vij[1][k], v2 = vij[2][k];
            double vg = v0 * g0;
            vg += v1 * g1;
            vg += v2 * g2;
            td[k] = mj * vg;
            tc[0][k] = mj * (v1 * g2 - v2 * g1);
            tc[1][k] = mj * (v2 * g0 - v0 * g2);
            tc[2][k] = mj * (v0 * g1 - v1 * g0);
            const double gsj = gs[len + k];
            const double h0 = -dx[0][k] * gsj, h1 = -dx[1][k] * gsj;
            const double h2 = -dx[2][k] * gsj;
            const double w0 = -v0, w1 = -v1, w2 = -v2;
            double wh = w0 * h0;
            wh += w1 * h1;
            wh += w2 * h2;
            tdp[k] = mi * wh;
            tcp[0][k] = mi * (w1 * h2 - w2 * h1);
            tcp[1][k] = mi * (w2 * h0 - w0 * h2);
            tcp[2][k] = mi * (w0 * h1 - w1 * h0);
        }
        if (own) {
            double dacc = 0.0, c0 = 0.0, c1 = 0.0, c2 = 0.0;
            for (int64_t k = 0; k < len; ++k) {
                dacc += td[k];
                c0 += tc[0][k];
                c1 += tc[1][k];
                c2 += tc[2][k];
            }
            divsum[i - lo] = dacc;
            curlsum[(i - lo) * 3 + 0] = c0;
            curlsum[(i - lo) * 3 + 1] = c1;
            curlsum[(i - lo) * 3 + 2] = c2;
        }
        for (int64_t k = 0; k < len; ++k) {
            const int64_t j = row[k];
            if (j < lo || j >= i)
                continue;
            divsum[j - lo] += tdp[k];
            for (int c = 0; c < 3; ++c)
                curlsum[(j - lo) * 3 + c] += tcp[c][k];
        }
    }
}

/* IAD gradients of a row, both sides: g_a = (sum_c C_ac (x_j - x_i)_c) s,
 * C = the row's own ci with s = si, or the neighbour's with s = sj; the
 * sums run over c ascending.  dim is a literal at the call sites. */
RP_SPECIALIZE void rp_iad_grads(const int dim, const double *ci,
                                const double *cmat, const int32_t *row,
                                int64_t len, double *const *dx,
                                const double *si, const double *sj,
                                double *const *gi, double *const *gj)
{
    RP_EACH(k, len) {
        const double *cj = cmat + (int64_t)row[k] * (dim * dim);
        for (int a = 0; a < dim; ++a) {
            double ga = 0.0, gb = 0.0;
            for (int c = 0; c < dim; ++c) {
                const double tj = -dx[c][k];
                ga += ci[a * dim + c] * tj;
                gb += cj[a * dim + c] * tj;
            }
            gi[a][k] = ga * si[k];
            gj[a][k] = gb * sj[k];
        }
    }
}

/* Momentum + energy of rows [lo, hi).  Per-pair gradients are the IAD
 * operator C (x_j - x_i) W on both sides (cmat != NULL) or the standard
 * dx * (dW/dr / r); geometry, both sides' kernel factors and gradients,
 * the viscosity and the neighbour gathers are computed once per pair.
 * With bals != NULL the viscosity carries the Balsara limiter.  Writes
 * the row sums of the acceleration pairs, of m_j*(v_ij . g_i) (s1) and
 * of (m_j*pi_ij)*(v_ij . gbar) (s2); Python combines du = p_over*s1 +
 * 0.5*s2 (pi, mu and v_ij . dx are the partner's too).  Returns max |mu|
 * over approaching pairs within the kernel support (the viscous
 * signal-speed term of the CFL). */
double rp_forces(const double *x, const double *v, const double *h,
                 const double *m, const double *rho, const double *p_over,
                 const double *cs, const int64_t *offsets,
                 const int32_t *indices, int64_t lo, int64_t hi, int64_t end,
                 int dim, const double *psel, const double *pdiv, int kind,
                 double p1, double sigma, const double *cmat,
                 const double *bals, double alpha, double beta, double eta2,
                 double support, double *scratch, int64_t cap, double *out_a,
                 double *out_s1, double *out_s2)
{
    RP_GEOM_BUFFERS(scratch, cap);
    /* q, f, f' hold the row's side (q = r/h_i) then the neighbours'
     * (q = r/h_j) back to back: one shape pass serves both. */
    double *q = scratch + 4 * cap, *f = q + 2 * cap, *fp = f + 2 * cap;
    double *hj = fp + 2 * cap, *si = hj + cap, *sj = si + cap;
    double *vd = sj + cap, *mu = vd + cap, *pi = mu + cap, *am = pi + cap;
    double *mj = am + cap, *poj = mj + cap, *ts1 = poj + cap;
    double *ts2 = ts1 + cap, *tp1 = ts2 + cap, *tp2 = tp1 + cap;
    double *b = tp2 + cap;
    double *const vij[3] = {b, b + cap, b + 2 * cap};
    double *const gi[3] = {b + 3 * cap, b + 4 * cap, b + 5 * cap};
    double *const gj[3] = {b + 6 * cap, b + 7 * cap, b + 8 * cap};
    double *const ta[3] = {b + 9 * cap, b + 10 * cap, b + 11 * cap};
    double *const tb[3] = {b + 12 * cap, b + 13 * cap, b + 14 * cap};
    const int dd = dim * dim;
    double max_mu = 0.0;
    for (int64_t i = lo; i < end; ++i) {
        const int32_t *row;
        const int64_t len = rp_pair_row(offsets, indices, i, lo, hi, &row);
        const int own = i < hi;
        const double hii = h[i], poi = p_over[i], csi = cs[i], rhoi = rho[i];
        const double mi = m[i];
        rp_row_geom(x, i, row, len, dim, psel, pdiv, dx, r);
        RP_EACH(k, len) {
            hj[k] = h[row[k]];
            q[k] = r[k] / hii;
            q[len + k] = r[k] / hj[k];
        }
        rp_row_shape(kind, p1, q, 2 * len, f, cmat ? NULL : fp);
        if (cmat) {
            const double wn = sigma / rp_hpow(hii, dim);
            const double *ci = cmat + i * dd;
            RP_EACH(k, len) {
                si[k] = wn * f[k];
                sj[k] = (sigma / rp_hpow(hj[k], dim)) * f[len + k];
            }
            if (dim == 3)
                rp_iad_grads(3, ci, cmat, row, len, dx, si, sj, gi, gj);
            else if (dim == 2)
                rp_iad_grads(2, ci, cmat, row, len, dx, si, sj, gi, gj);
            else
                rp_iad_grads(1, ci, cmat, row, len, dx, si, sj, gi, gj);
        } else {
            rp_row_grad_scale(r, fp, hii, 0, len, dim, sigma, si);
            rp_row_grad_scale(r, fp + len, 0.0, hj, len, dim, sigma, sj);
            for (int a = 0; a < dim; ++a)
                RP_EACH(k, len) {
                    gi[a][k] = dx[a][k] * si[k];
                    gj[a][k] = dx[a][k] * sj[k];
                }
        }
        for (int d = 0; d < dim; ++d)
            RP_EACH(k, len)
                vij[d][k] = v[i * dim + d] - v[(int64_t)row[k] * dim + d];
        RP_EACH(k, len) {
            const int64_t j = row[k];
            double vdotr = vij[0][k] * dx[0][k];
            vdotr += vij[1][k] * dx[1][k];
            vdotr += vij[2][k] * dx[2][k];
            const double hbar = (hii + hj[k]) * 0.5;
            double muk = hbar * vdotr;
            double denom = r[k] * r[k];
            double eta_h = hbar * eta2;
            eta_h *= hbar;
            denom += eta_h;
            muk /= denom;
            const double cbar = 0.5 * (csi + cs[j]);
            const double rhobar = 0.5 * (rhoi + rho[j]);
            vd[k] = vdotr;
            mu[k] = muk;
            pi[k] = ((-alpha) * cbar * muk + (beta * muk) * muk) / rhobar;
            mj[k] = m[j];
            poj[k] = p_over[j];
        }
        if (bals)
            RP_EACH(k, len) pi[k] = (pi[k] * 0.5) * (bals[i] + bals[row[k]]);
        RP_EACH(k, len) {
            const int approaching = vd[k] < 0.0;
            const double hmax = (hii > hj[k] ? hii : hj[k]) * support;
            pi[k] = approaching ? pi[k] : 0.0;
            am[k] = (approaching & (r[k] <= hmax)) ? fabs(mu[k]) : 0.0;
        }
        /* Row i's terms, then in statements of their own the partner's:
         * its g_i is -g_j, its g_j is -g_i, and v_ij changes sign. */
        RP_EACH(k, len) {
            double vdot_gi = 0.0, vdot_gbar = 0.0;
            double wdot_gi = 0.0, wdot_gbar = 0.0;
            for (int d = 0; d < 3; ++d) {
                const double gid = gi[d][k], gjd = gj[d][k];
                const double gbar = (gid + gjd) * 0.5;
                vdot_gi += vij[d][k] * gid;
                vdot_gbar += vij[d][k] * gbar;
                const double pres = poi * gid + poj[k] * gjd;
                ta[d][k] = (-mj[k]) * (pres + pi[k] * gbar);
                const double hid = -gj[d][k], hjd = -gi[d][k];
                const double hbar = (hid + hjd) * 0.5;
                const double vd_ = -vij[d][k];
                wdot_gi += vd_ * hid;
                wdot_gbar += vd_ * hbar;
                const double qres = poj[k] * hid + poi * hjd;
                tb[d][k] = (-mi) * (qres + pi[k] * hbar);
            }
            ts1[k] = mj[k] * vdot_gi;
            ts2[k] = (mj[k] * pi[k]) * vdot_gbar;
            tp1[k] = mi * wdot_gi;
            tp2[k] = (mi * pi[k]) * wdot_gbar;
        }
        if (own) {
            double a0 = 0.0, a1 = 0.0, a2 = 0.0, s1 = 0.0, s2 = 0.0;
            for (int64_t k = 0; k < len; ++k) {
                a0 += ta[0][k];
                a1 += ta[1][k];
                a2 += ta[2][k];
                s1 += ts1[k];
                s2 += ts2[k];
                max_mu = am[k] > max_mu ? am[k] : max_mu;
            }
            const double acc[3] = {a0, a1, a2};
            for (int d = 0; d < dim; ++d)
                out_a[(i - lo) * dim + d] = acc[d];
            out_s1[i - lo] = s1;
            out_s2[i - lo] = s2;
        }
        for (int64_t k = 0; k < len; ++k) {
            const int64_t j = row[k];
            if (j < lo || j >= i)
                continue;
            for (int d = 0; d < dim; ++d)
                out_a[(j - lo) * dim + d] += tb[d][k];
            out_s1[j - lo] += tp1[k];
            out_s2[j - lo] += tp2[k];
        }
    }
    return max_mu;
}

/* ---- Barnes-Hut interaction lists.  The gravity walk (below) collects,
 * per target leaf, the nodes it accepts and the source particles of the
 * leaves it opens into two lists; every particle of the leaf then sums
 * over both.  A list is stored in blocks of RP_LANES entries, each block
 * holding its fields one after the other (field f of entry k at
 * ((k / RP_LANES) * nf + f) * RP_LANES + k % RP_LANES), and a sum over
 * it is RP_LANES accumulators, entry k adding into lane k % RP_LANES in
 * ascending k, the lanes added in one fixed order at the end:
 * branch-free, vectorised across the lanes, and a particle's sums
 * depend on its leaf's lists alone — so on nothing but the leaf,
 * whatever other leaves share the call.  A list is padded to whole
 * blocks with copies of its last entry whose weight (mass, G*m) and
 * moments are zero: every term of a padded entry carries that zero and
 * is +-0.0.  These loops only feed sums and keep their FMAs (noinline:
 * the walk that calls them is compiled without). ---- */
#define RP_LANES 8

#if defined(__GNUC__)
#define RP_NOINLINE static __attribute__((noinline))
#else
#define RP_NOINLINE static
#endif

static inline double rp_lane_sum(const double *s)
{
    return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}

/* Fields of an M2P list entry (one accepted node): COM, mass and the
 * packed moments.  A contraction with d meets a component once per
 * ordering of its indices, so a packed component is the sum of its
 * copies — its multiplicity weight — and meets d in one monomial: M2 as
 * 6 components (off-diagonal copies averaged: M2 d is a vector),
 * M3(d,d,e) as 6 pair classes and M4(d,d,d,e) as 10 triple classes per
 * e, with the traces tr M2, t3_e = M3_aae, T4_bc = M4_aabc (6) and
 * tr T4.  Pair classes: xx yy zz xy xz yz; triple classes: xxx yyy zzz
 * xxy xxz xyy yyz xzz yzz xyz. */
enum {
    RP_G_CX = 0, RP_G_CY, RP_G_CZ, RP_G_MASS,
    RP_G_M2 = 4, RP_G_TR2 = 10,
    RP_G_M3 = 11, RP_G_T3 = 29,
    RP_G_M4 = 32, RP_G_T4 = 62, RP_G_TT4 = 68
};

/* Fields an M2P entry of rank `rank` uses. */
static inline int rp_m2p_fields(int rank)
{
    return rank >= 4 ? 69 : rank >= 3 ? 32 : rank >= 2 ? 11 : 4;
}

/* The far field of an M2P list of `len` (padded) entries on the
 * particles order[t0..t1): evaluate_multipoles (gravity/multipole.py) on
 * packed moments, unscaled by G.  Block by block, each block serving
 * every particle while it is in cache; particle p adds into its row of
 * `lanes` (4 * RP_LANES accumulators: a_x, a_y, a_z, potential), which
 * the caller zeroes and reduces.  rank is a literal at the call sites
 * of rp_m2p_leaf. */
RP_SPECIALIZE void rp_m2p_rank(const int rank, const double *list,
                               int64_t len, const double *x,
                               const int64_t *order, int64_t t0, int64_t t1,
                               double *lanes)
{
    const int nf = rp_m2p_fields(rank);
    for (int64_t k0 = 0; k0 < len; k0 += RP_LANES) {
        const double *B = list + k0 * nf;
#define RP_F(f) (B + (f) * RP_LANES)
        for (int64_t p = t0; p < t1; ++p) {
            const double *xi = x + 3 * order[p];
            double *sx = lanes + (p - t0) * 4 * RP_LANES;
            double *sy = sx + RP_LANES, *sz = sy + RP_LANES, *sp = sz + RP_LANES;
            RP_EACH(l, RP_LANES) {
                const double dx = xi[0] - RP_F(RP_G_CX)[l];
                const double dy = xi[1] - RP_F(RP_G_CY)[l];
                const double dz = xi[2] - RP_F(RP_G_CZ)[l];
                const double u2 = 1.0 / (dx * dx + dy * dy + dz * dz);
                const double g0 = sqrt(u2), g1 = -g0 * u2;
                const double mass = RP_F(RP_G_MASS)[l];
                double pot = mass * g0, along = mass * g1;
                double rx = 0.0, ry = 0.0, rz = 0.0;
                if (rank >= 2) {
#define RP_Q(f, c) RP_F((f) + (c))[l]
                    const double g2 = -3.0 * g1 * u2, g3 = -5.0 * g2 * u2;
                    const double xx = dx * dx, yy = dy * dy, zz = dz * dz;
                    const double xy = dx * dy, xz = dx * dz, yz = dy * dz;
                    const double v2x = RP_Q(RP_G_M2, 0) * dx
                                       + RP_Q(RP_G_M2, 3) * dy
                                       + RP_Q(RP_G_M2, 4) * dz;
                    const double v2y = RP_Q(RP_G_M2, 3) * dx
                                       + RP_Q(RP_G_M2, 1) * dy
                                       + RP_Q(RP_G_M2, 5) * dz;
                    const double v2z = RP_Q(RP_G_M2, 4) * dx
                                       + RP_Q(RP_G_M2, 5) * dy
                                       + RP_Q(RP_G_M2, 2) * dz;
                    const double q2 = v2x * dx + v2y * dy + v2z * dz;
                    const double tr2 = RP_Q(RP_G_TR2, 0);
                    pot += 0.5 * (g2 * q2 + g1 * tr2);
                    along += 0.5 * (g3 * q2 + g2 * tr2);
                    rx = g2 * v2x;
                    ry = g2 * v2y;
                    rz = g2 * v2z;
                    if (rank >= 3) {
                        const double g4 = -7.0 * g3 * u2;
                        double v3[3], t3[3];
                        for (int e = 0; e < 3; ++e) {
                            const int f = RP_G_M3 + 6 * e;
                            v3[e] = RP_Q(f, 0) * xx + RP_Q(f, 1) * yy
                                    + RP_Q(f, 2) * zz + RP_Q(f, 3) * xy
                                    + RP_Q(f, 4) * xz + RP_Q(f, 5) * yz;
                            t3[e] = RP_Q(RP_G_T3, e);
                        }
                        const double q3 = v3[0] * dx + v3[1] * dy + v3[2] * dz;
                        const double t3d = t3[0] * dx + t3[1] * dy + t3[2] * dz;
                        pot -= (g3 * q3 + 3.0 * g2 * t3d) * (1.0 / 6.0);
                        along -= (g4 * q3 + 3.0 * g3 * t3d) * (1.0 / 6.0);
                        rx -= 0.5 * (g3 * v3[0] + g2 * t3[0]);
                        ry -= 0.5 * (g3 * v3[1] + g2 * t3[1]);
                        rz -= 0.5 * (g3 * v3[2] + g2 * t3[2]);
                        if (rank >= 4) {
                            const double g5 = -9.0 * g4 * u2;
                            const double cub[10] = {
                                xx * dx, yy * dy, zz * dz, xx * dy, xx * dz,
                                xy * dy, yy * dz, xz * dz, yz * dz, xy * dz};
                            double v4[3];
                            for (int e = 0; e < 3; ++e) {
                                const int f = RP_G_M4 + 10 * e;
                                double s = RP_Q(f, 0) * cub[0];
                                for (int c = 1; c < 10; ++c)
                                    s += RP_Q(f, c) * cub[c];
                                v4[e] = s;
                            }
                            const double w4x = RP_Q(RP_G_T4, 0) * dx
                                               + RP_Q(RP_G_T4, 3) * dy
                                               + RP_Q(RP_G_T4, 4) * dz;
                            const double w4y = RP_Q(RP_G_T4, 3) * dx
                                               + RP_Q(RP_G_T4, 1) * dy
                                               + RP_Q(RP_G_T4, 5) * dz;
                            const double w4z = RP_Q(RP_G_T4, 4) * dx
                                               + RP_Q(RP_G_T4, 5) * dy
                                               + RP_Q(RP_G_T4, 2) * dz;
                            const double q4 = v4[0] * dx + v4[1] * dy + v4[2] * dz;
                            const double t4dd = w4x * dx + w4y * dy + w4z * dz;
                            const double tt4 = RP_Q(RP_G_TT4, 0);
                            pot += (g4 * q4 + 6.0 * g3 * t4dd + 3.0 * g2 * tt4)
                                   * (1.0 / 24.0);
                            along += (g5 * q4 + 6.0 * g4 * t4dd + 3.0 * g3 * tt4)
                                     * (1.0 / 24.0);
                            rx += g4 * v4[0] * (1.0 / 6.0) + 0.5 * g3 * w4x;
                            ry += g4 * v4[1] * (1.0 / 6.0) + 0.5 * g3 * w4y;
                            rz += g4 * v4[2] * (1.0 / 6.0) + 0.5 * g3 * w4z;
                        }
                    }
#undef RP_Q
                }
                sx[l] += along * dx + rx;
                sy[l] += along * dy + ry;
                sz[l] += along * dz + rz;
                sp[l] += pot;
            }
        }
#undef RP_F
    }
}

RP_NOINLINE void rp_m2p_leaf(int rank, const double *list, int64_t len,
                             const double *x, const int64_t *order,
                             int64_t t0, int64_t t1, double *lanes)
{
    if (rank >= 4)
        rp_m2p_rank(4, list, len, x, order, t0, t1, lanes);
    else if (rank == 3)
        rp_m2p_rank(3, list, len, x, order, t0, t1, lanes);
    else if (rank == 2)
        rp_m2p_rank(2, list, len, x, order, t0, t1, lanes);
    else
        rp_m2p_rank(0, list, len, x, order, t0, t1, lanes);
}

/* The near field of a P2P list of `len` (padded) entries — fields x, y,
 * z, G*m; indices idx — on target i at xi, Plummer-softened by eps2:
 * out = (sum of G m_j dx / r^3 per axis, sum of G m_j / r).  The self
 * pair is masked by index, not skipped: its inverse distance is selected
 * to 0. */
RP_NOINLINE void rp_p2p_list(const double *list, const int64_t *idx,
                             int64_t len, const double *xi, int64_t i,
                             double eps2, double *out)
{
    double sx[RP_LANES] = {0.0}, sy[RP_LANES] = {0.0};
    double sz[RP_LANES] = {0.0}, sp[RP_LANES] = {0.0};
    for (int64_t k0 = 0; k0 < len; k0 += RP_LANES) {
        const double *px = list + 4 * k0, *py = px + RP_LANES;
        const double *pz = py + RP_LANES, *gm = pz + RP_LANES;
        const int64_t *j = idx + k0;
        RP_EACH(l, RP_LANES) {
            const double dx = xi[0] - px[l], dy = xi[1] - py[l];
            const double dz = xi[2] - pz[l];
            const double r2 = dx * dx + dy * dy + dz * dz + eps2;
            const double inv_r = j[l] == i ? 0.0 : 1.0 / sqrt(r2);
            const double f = gm[l] * (inv_r * inv_r * inv_r);
            sx[l] += f * dx;
            sy[l] += f * dy;
            sz[l] += f * dz;
            sp[l] += gm[l] * inv_r;
        }
    }
    out[0] = rp_lane_sum(sx);
    out[1] = rp_lane_sum(sy);
    out[2] = rp_lane_sum(sz);
    out[3] = rp_lane_sum(sp);
}

/* ---- Neighbour search, node moments and gravity walk.  From here to
 * the end of the unit a*b + c is never contracted into a fused
 * multiply-add: a search decides set membership on r2 <= cutoff*cutoff
 * (the gravity MAC on size <= theta*dist), and a value that differs from
 * numpy's in its last bit moves a pair sitting on the cutoff (a node on
 * the opening angle) to the other side; the node moments are numpy's
 * operations in numpy's order, to the bit (the row kernels and list
 * loops above only feed sums, where the ulp is covered by the backend
 * tolerance, and keep the FMAs). ---- */
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC optimize("fp-contract=off") /* gcc ignores the ISO pragma */
#else
#pragma STDC FP_CONTRACT OFF
#endif

/* Canonical row order (ascending neighbour index) for a whole CSR list,
 * row by row in place (Shell sort, Ciura gaps: rows hold a few hundred
 * entries).  A search that feeds the h iteration skips this: the count
 * sweeps are order-blind and the cut that ends the build orders what
 * survives. */
void rp_sort_rows(const int64_t *offsets, int64_t n, int32_t *indices)
{
    static const int64_t gaps[8] = {701, 301, 132, 57, 23, 10, 4, 1};
    for (int64_t i = 0; i < n; ++i) {
        int32_t *a = indices + offsets[i];
        for (int g = 0; g < 8; ++g)
            for (int64_t k = gaps[g]; k < offsets[i + 1] - offsets[i]; ++k) {
                const int32_t v = a[k];
                int64_t m = k;
                for (; m >= gaps[g] && a[m - gaps[g]] > v; m -= gaps[g])
                    a[m] = a[m - gaps[g]];
                a[m] = v;
            }
    }
}

/* A DFS holds at most (2^dim - 1) siblings per level plus the node in
 * hand: 21 levels * 7 + 1 in 3-D, 31 * 3 + 1 in 2-D, 62 + 1 in 1-D. */
#define RP_WALK_STACK 160

/* Per-node summaries of the particles a search runs over, in Morton
 * order (xs is (dim, n): one contiguous row per axis): the tight box
 * [lo, hi] and the largest radius.  lo/hi are coordinates of particles,
 * not of cells, so "x in node k" implies lo[k] <= x <= hi[k] exactly —
 * the containment both prunes of rp_walk start from.  Children sit after
 * their parent (the build appends level by level), so one reverse sweep
 * sees every child before its parent. */
void rp_node_bounds(const double *xs, const double *rs, int64_t n, int dim,
                    int64_t n_nodes, const int64_t *child_start,
                    const int64_t *child_count, const int64_t *pstart,
                    const int64_t *pend, double *lo, double *hi,
                    double *rmax)
{
    for (int64_t k = n_nodes - 1; k >= 0; --k) {
        double *l = lo + k * dim, *h = hi + k * dim;
        double r = -INFINITY;
        for (int d = 0; d < dim; ++d) {
            l[d] = INFINITY;
            h[d] = -INFINITY;
        }
        if (child_count[k]) {
            for (int64_t c = child_start[k];
                 c < child_start[k] + child_count[k]; ++c) {
                for (int d = 0; d < dim; ++d) {
                    if (lo[c * dim + d] < l[d])
                        l[d] = lo[c * dim + d];
                    if (hi[c * dim + d] > h[d])
                        h[d] = hi[c * dim + d];
                }
                if (rmax[c] > r)
                    r = rmax[c];
            }
        } else {
            for (int64_t p = pstart[k]; p < pend[k]; ++p) {
                for (int d = 0; d < dim; ++d) {
                    const double v = xs[d * n + p];
                    if (v < l[d])
                        l[d] = v;
                    if (v > h[d])
                        h[d] = v;
                }
                if (rs[p] > r)
                    r = rs[p];
            }
        }
        rmax[k] = r;
    }
}

/* One axis of the minimum image over a whole box pair.  Every rounded
 * separation t = x_i - x_j with x_i in [lo_i, hi_i], x_j in [lo_j, hi_j]
 * lies in [tmin, tmax] = [lo_i - hi_j, hi_i - lo_j] (rounding is
 * monotone), and so does every step of the wrap
 *     w(t) = t - psel * rint(t / pdiv)
 * because division by pdiv > 0, rint and the final subtraction are
 * monotone too: k(t) = rint(t / pdiv) is a non-decreasing step function,
 * and w is non-decreasing wherever k is constant.
 *
 * - k(tmin) == k(tmax) (always so on an open axis, where pdiv = inf): the
 *   shift psel*k is the same for every pair, *shift receives it, and
 *   w(t) = t - shift is what the per-candidate formula computes, bit for
 *   bit, with no division.  |w| >= the returned gap: w(tmin) when that
 *   is positive, -w(tmax) when that is negative, else 0.
 * - k steps once inside the interval (the boxes straddle the seam half
 *   a span apart): *hoisted is cleared — candidates take the
 *   per-candidate formula — and on each of the two pieces w is monotone,
 *   so |w| >= min(w(tmin), -w(tmax)) when those have the signs of a
 *   seam, else 0.
 * - more than one step (boxes wider than the span): gap 0.
 *
 * The gap is a bound on the *computed* |w|, not on a real-number
 * distance, so squaring and summing gaps in axis order — each operation
 * monotone again — never exceeds the r2 of any pair.  rp_gap is the
 * distance from 0 to the interval [wmin, wmax] of one monotone piece. */
static inline double rp_gap(double wmin, double wmax)
{
    return wmin > 0.0 ? wmin : (wmax < 0.0 ? -wmax : 0.0);
}

static inline double rp_axis_gap(double tmin, double tmax, double psel,
                                 double pdiv, double *shift, int *hoisted)
{
    const double kmin = rint(tmin / pdiv), kmax = rint(tmax / pdiv);
    const double wmin = tmin - psel * kmin, wmax = tmax - psel * kmax;
    if (kmin == kmax) {
        *shift = psel * kmin;
        return rp_gap(wmin, wmax);
    }
    *hoisted = 0;
    if (kmax - kmin == 1.0 && wmin > 0.0 && wmax < 0.0)
        return wmin < -wmax ? wmin : -wmax;
    return 0.0;
}

/* The particles q of [q0, q1) in range of one target particle (position
 * xi, radius ri), q == skip excepted: the predicate of rp_row_in_range
 * on the Morton-ordered copies, either mode.  With shift != NULL the
 * minimum image of every axis is the hoisted t - shift[d], else
 * t - psel * rint(t / pdiv).  The tests run over the leaf at once into hit
 * (room for q1 - q0); then every candidate is stored in row, which has
 * room for all of them, and a hit moves the end on.  Returns how many. */
RP_SPECIALIZE int64_t rp_leaf_hits(const double *xs, const double *rs,
                                   int64_t n, const int dim,
                                   const double *xi, double ri,
                                   const double *shift, const double *psel,
                                   const double *pdiv, int symmetric,
                                   int64_t q0, int64_t q1, int64_t skip,
                                   const int64_t *order, double *hit,
                                   int32_t *row)
{
    const int64_t len = q1 - q0;
    const double *x0 = xs + q0, *r0 = rs + q0;
    if (shift) {
        RP_EACH(k, len) {
            double r2 = 0.0;
            for (int d = 0; d < dim; ++d) {
                const double t = (xi[d] - x0[d * n + k]) - shift[d];
                r2 += t * t;
            }
            const double cutoff = symmetric && r0[k] > ri ? r0[k] : ri;
            hit[k] = r2 <= cutoff * cutoff;
        }
    } else {
        RP_EACH(k, len) {
            double r2 = 0.0;
            for (int d = 0; d < dim; ++d) {
                const double t = xi[d] - x0[d * n + k];
                const double w = t - psel[d] * rint(t / pdiv[d]);
                r2 += w * w;
            }
            const double cutoff = symmetric && r0[k] > ri ? r0[k] : ri;
            hit[k] = r2 <= cutoff * cutoff;
        }
    }
    if (skip >= q0 && skip < q1)
        hit[skip - q0] = 0.0;
    int64_t c = 0;
    for (int64_t k = 0; k < len; ++k) {
        row[c] = (int32_t)order[q0 + k];
        c += hit[k] != 0.0;
    }
    return c;
}

/* A source leaf one target leaf's descent reached: node k and, when the
 * leaf pair's minimum image is hoisted, its shift psel[d] * img[d].  The
 * positions are wrapped, so two boxes are less than a span apart and the
 * image rint(t / pdiv) of rp_axis_gap is -1, 0 or 1 (its zero's sign
 * reaches only zeros, whose squares are +0). */
typedef struct {
    int32_t k;
    int8_t img[3];
    int8_t hoisted;
} rp_source;

/* The growing block of a walk's rows (rp_walk). */
typedef struct {
    int32_t *buf;
    int64_t len, cap;
} rp_rows;

/* Room for `extra` more entries; -1 when out of memory. */
static int rp_rows_reserve(rp_rows *rows, int64_t extra)
{
    if (rows->len + extra <= rows->cap)
        return 0;
    int64_t cap = rows->cap ? 2 * rows->cap : 4096;
    while (cap < rows->len + extra)
        cap *= 2;
    int32_t *buf = realloc(rows->buf, sizeof *buf * (size_t)cap);
    if (!buf)
        return -1;
    rows->buf = buf;
    rows->cap = cap;
    return 0;
}

void rp_free(void *p)
{
    free(p);
}

/* Row p (Morton position) of the walk: every source leaf of its target
 * leaf — src[0..n_src), self (node tl) first skipped at p when
 * include_self is off — repeating the descent's prune point-to-box
 * against max(r_i, rmax[k]) (gather: r_i) before its candidates are
 * tested, appended to rows.  Returns -1 when out of memory. */
RP_SPECIALIZE int rp_walk_row(const double *xs, const double *rs,
                              int64_t n, const int dim, int symmetric,
                              const double *psel, const double *pdiv,
                              const int64_t *pstart, const int64_t *pend,
                              const int64_t *order, const double *lo,
                              const double *hi, const double *rmax,
                              int64_t tl, int include_self, int64_t p,
                              const rp_source *src, int64_t n_src,
                              double *hit, rp_rows *rows)
{
    const double ri = rs[p];
    double xi[3];
    for (int d = 0; d < dim; ++d)
        xi[d] = xs[d * n + p];
    for (int64_t e = 0; e < n_src; ++e) {
        const int64_t k = src[e].k;
        const double *slo = lo + k * dim, *shi = hi + k * dim;
        double shift[3] = {0.0, 0.0, 0.0}, e2 = 0.0;
        for (int d = 0; d < dim; ++d) {
            double g;
            if (src[e].hoisted) {
                shift[d] = psel[d] * src[e].img[d];
                g = rp_gap((xi[d] - shi[d]) - shift[d],
                           (xi[d] - slo[d]) - shift[d]);
            } else {
                double unused_shift;
                int unused_flag;
                g = rp_axis_gap(xi[d] - shi[d], xi[d] - slo[d], psel[d],
                                pdiv[d], &unused_shift, &unused_flag);
            }
            e2 += g * g;
        }
        double reach = ri;
        if (symmetric && rmax[k] > reach)
            reach = rmax[k];
        if (!(e2 <= reach * reach))
            continue;
        if (rp_rows_reserve(rows, pend[k] - pstart[k]))
            return -1;
        rows->len += rp_leaf_hits(
            xs, rs, n, dim, xi, ri, src[e].hoisted ? shift : 0, psel, pdiv,
            symmetric, pstart[k], pend[k],
            k == tl && !include_self ? p : -1, order, hit,
            rows->buf + rows->len);
    }
    return 0;
}

/* Neighbour discovery by tree walk, one descent per target leaf —
 * Octree.walk_neighbors in C.  xs/rs are the wrapped positions (dim, n)
 * and search radii in Morton order, lo/hi/rmax the rp_node_bounds of
 * exactly those.
 *
 * For a target leaf T the depth-first descent keeps a node k while the
 * box-to-box gap (rp_axis_gap per axis, squared and summed in axis
 * order) is within max(rmax[T], rmax[k]) (gather: rmax[T]) — a bound no
 * pair between the two can beat, see rp_axis_gap — and records each
 * source leaf it reaches, with the shifts hoisted for the leaf pair when
 * every axis allows it.  Candidates that survive the point-to-box prune
 * (rp_walk_row) pass the predicate of pairs_in_range, to the bit.  So
 * the accepted set is the set of the numpy walk; each row holds its
 * source leaves in descent order (rp_sort_rows makes it canonical).
 *
 * One traversal: the rows are written in particle order, each behind
 * the last, into the block `rows` grows (the caller frees rows->buf with
 * rp_free), and offsets[i + 1] is where row i ends.  With want != NULL
 * only the rows i with want[i] are searched (the others are empty), and
 * only target leaves holding one are descended.  Returns -1, having
 * written no offsets past the failure, when out of memory. */
int rp_walk(const double *xs, const double *rs, int64_t n, int dim,
            int symmetric, const double *psel, const double *pdiv,
            int64_t n_nodes, const int64_t *child_start,
            const int64_t *child_count, const int64_t *pstart,
            const int64_t *pend, const int64_t *order, const double *lo,
            const double *hi, const double *rmax, int include_self,
            const int8_t *want, int64_t *offsets, rp_rows *rows)
{
    int64_t stack[RP_WALK_STACK];
    int64_t *pos = malloc(sizeof *pos * (size_t)(n ? n : 1));
    int64_t *leaf = malloc(sizeof *leaf * (size_t)(n ? n : 1));
    int64_t *first = malloc(sizeof *first * (size_t)(n_nodes + 1));
    rp_source *src = 0;
    int64_t n_src = 0, cap_src = 0, widest = 1;
    for (int64_t k = 0; k < n_nodes; ++k)
        if (!child_count[k] && pend[k] - pstart[k] > widest)
            widest = pend[k] - pstart[k];
    double *hit = malloc(sizeof *hit * (size_t)widest);
    int status = -1;
    if (!pos || !leaf || !first || !hit)
        goto done;
    for (int64_t tl = 0; tl < n_nodes; ++tl) {
        first[tl] = n_src;
        if (child_count[tl])
            continue;
        const int64_t t0 = pstart[tl], t1 = pend[tl];
        int wanted = !want;
        for (int64_t p = t0; p < t1; ++p) {
            pos[order[p]] = p;
            leaf[p] = tl;
            wanted |= want && want[order[p]];
        }
        if (!wanted)
            continue;
        const double *tlo = lo + tl * dim, *thi = hi + tl * dim;
        int top = 0;
        stack[top++] = 0;
        while (top > 0) {
            const int64_t k = stack[--top];
            const double *klo = lo + k * dim, *khi = hi + k * dim;
            double shift[3], d2 = 0.0;
            int hoisted = 1;
            for (int d = 0; d < dim; ++d) {
                const double e =
                    rp_axis_gap(tlo[d] - khi[d], thi[d] - klo[d], psel[d],
                                pdiv[d], shift + d, &hoisted);
                d2 += e * e;
            }
            double reach = rmax[tl];
            if (symmetric && rmax[k] > reach)
                reach = rmax[k];
            if (!(d2 <= reach * reach))
                continue;
            const int64_t nchild = child_count[k];
            for (int64_t ch = 0; ch < nchild; ++ch)
                stack[top++] = child_start[k] + ch;
            if (nchild)
                continue;
            if (n_src == cap_src) {
                cap_src = cap_src ? 2 * cap_src : 1024;
                rp_source *grown = realloc(src, sizeof *src * (size_t)cap_src);
                if (!grown)
                    goto done;
                src = grown;
            }
            rp_source *e = src + n_src++;
            e->k = (int32_t)k;
            e->hoisted = (int8_t)hoisted;
            for (int d = 0; d < 3; ++d)
                e->img[d] = (int8_t)(d < dim && hoisted && psel[d] != 0.0
                                     ? shift[d] / psel[d] : 0);
        }
    }
    first[n_nodes] = n_src;
    offsets[0] = 0;
    for (int64_t i = 0; i < n; ++i) {
        if (!want || want[i]) {
            const int64_t p = pos[i], tl = leaf[p];
            const rp_source *s = src + first[tl];
            const int64_t ns = first[tl + 1] - first[tl];
#define RP_WALK_ROW(DIM)                                                   \
    rp_walk_row(xs, rs, n, DIM, symmetric, psel, pdiv, pstart, pend, order, \
                lo, hi, rmax, tl, include_self, p, s, ns, hit, rows)
            const int failed = dim == 3 ? RP_WALK_ROW(3)
                               : dim == 2 ? RP_WALK_ROW(2)
                                          : RP_WALK_ROW(1);
#undef RP_WALK_ROW
            if (failed)
                goto done;
        }
        offsets[i + 1] = rows->len;
    }
    status = 0;
done:
    free(pos);
    free(leaf);
    free(first);
    free(src);
    free(hit);
    return status;
}

/* splitmix64's finaliser. */
static inline uint64_t rp_mix(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/* Pair acceptance of a symmetric search, mirroring pairs_in_range
 * (tree/neighborlist.py), for a whole row in vectorisable loops over the
 * row buffers dx[0..dim): keep[k] = r2 <= cutoff * cutoff on the wrapped
 * positions, cutoff = max(radii[i], radii[row[k]]).  The minimum image
 * of a periodic axis is t - psel * rint(t / pdiv): for |t| <= pdiv / 2
 * the correctly rounded quotient is at most 0.5 in magnitude, rint gives
 * +-0 and the subtraction returns t; between wrapped positions |t| <
 * pdiv, so rint is 0 or +-1 and psel * rint is exact. */
RP_SPECIALIZE void rp_row_in_range(const double *xw, const double *radii,
                                   int64_t i, const int32_t *row,
                                   int64_t len, const int dim,
                                   const double *psel, const double *pdiv,
                                   double *const *dx, double *keep)
{
    RP_EACH(k, len) {
        const double *xj = xw + (int64_t)row[k] * dim;
        for (int d = 0; d < dim; ++d)
            dx[d][k] = xw[i * dim + d] - xj[d];
    }
    for (int d = 0; d < dim; ++d) {
        double *t = dx[d];
        const double ps = psel[d], pd = pdiv[d];
        if (ps != 0.0)
            RP_EACH(k, len) t[k] -= ps * rint(t[k] / pd);
    }
    const double ri = radii[i];
    RP_EACH(k, len) {
        double r2 = dx[0][k] * dx[0][k];
        for (int d = 1; d < dim; ++d)
            r2 += dx[d][k] * dx[d][k];
        const double rj = radii[row[k]];
        const double cutoff = rj > ri ? rj : ri;
        keep[k] = r2 <= cutoff * cutoff;
    }
}

/* rp_row_in_range of row i into the row buffers of scratch (4 of cap). */
static const double *rp_row_keep(const double *xw, const double *radii,
                                 int64_t i, const int32_t *row, int64_t len,
                                 int dim, const double *psel,
                                 const double *pdiv, double *scratch,
                                 int64_t cap)
{
    double *const dx[3] = {scratch, scratch + cap, scratch + 2 * cap};
    double *const keep = scratch + 3 * cap;
    if (dim == 3)
        rp_row_in_range(xw, radii, i, row, len, 3, psel, pdiv, dx, keep);
    else if (dim == 2)
        rp_row_in_range(xw, radii, i, row, len, 2, psel, pdiv, dx, keep);
    else
        rp_row_in_range(xw, radii, i, row, len, 1, psel, pdiv, dx, keep);
    return keep;
}

/* The pairs of a CSR list that a symmetric search at radii would keep
 * (NeighborList.within), rows ascending whatever order the input's are
 * in, with no sort: a count pass stores row i's kept length in
 * new_offsets[i + 2], so that after the prefix sum new_offsets[j + 1] is
 * where row j starts, and a scatter pass over ascending i appends i to
 * row j at that cursor for every kept (i, j).  The kept pairs are
 * symmetric, so row j receives exactly its own neighbours, ascending,
 * and each cursor ends where its row ends.  Each pass tests a whole row
 * at once (rp_row_keep; scratch/cap as the pair ops').  Returns 1, having
 * written nothing, if the kept pairs' tags do not cancel (the list is
 * not symmetric), -1 when out of memory, else 0.  new_offsets[0] must be
 * 0. */
int rp_pairs_within(const double *xw, const double *radii,
                    const int64_t *offsets, const int32_t *indices,
                    int64_t n, int dim, const double *psel,
                    const double *pdiv, double *scratch, int64_t cap,
                    int64_t *new_offsets, int32_t *out)
{
    /* Two hashes per particle: the tag g_i h_j - g_j h_i of a kept pair
     * (i, j) cancels the tag of (j, i), and a self pair's is 0. */
    uint64_t *gh = malloc(sizeof *gh * (size_t)(2 * n + 1));
    if (!gh)
        return -1;
    for (int64_t i = 0; i < 2 * n; ++i)
        gh[i] = rp_mix((uint64_t)i);
    uint64_t tags = 0;
    for (int64_t i = 0; i < n; ++i) {
        const int32_t *row = indices + offsets[i];
        const int64_t len = offsets[i + 1] - offsets[i];
        const double *keep = rp_row_keep(xw, radii, i, row, len, dim, psel,
                                         pdiv, scratch, cap);
        const uint64_t gi = gh[2 * i], hi = gh[2 * i + 1];
        int64_t c = 0;
        for (int64_t k = 0; k < len; ++k) {
            const int64_t j = row[k];
            const uint64_t tag = gi * gh[2 * j + 1] - gh[2 * j] * hi;
            tags += keep[k] != 0.0 ? tag : 0;
            c += keep[k] != 0.0;
        }
        if (i + 2 <= n)
            new_offsets[i + 2] = c;
    }
    free(gh);
    if (tags)
        return 1;
    for (int64_t i = 2; i <= n; ++i)
        new_offsets[i] += new_offsets[i - 1];
    for (int64_t i = 0; i < n; ++i) {
        const int32_t *row = indices + offsets[i];
        const int64_t len = offsets[i + 1] - offsets[i];
        const double *keep = rp_row_keep(xw, radii, i, row, len, dim, psel,
                                         pdiv, scratch, cap);
        for (int64_t k = 0; k < len; ++k)
            if (keep[k] != 0.0)
                out[new_offsets[row[k] + 1]++] = (int32_t)i;
    }
    return 0;
}

/* NeighborList.merged: the list a (a symmetric search) after the rows
 * with redo[i] were searched again, symmetrically, into b: row t of b
 * replaces row t of a, and every other row i keeps its pairs with rows
 * not searched again and gains, ascending in t, every t whose row of b
 * holds i — by index alone, no separation is computed.  out_offsets
 * receives the rows' ends behind out_offsets[0] = 0; out has room for
 * every row.  Returns -1 when out of memory. */
int rp_merge_rows(const int64_t *a_offsets, const int32_t *a_indices,
                  const int64_t *b_offsets, const int32_t *b_indices,
                  const int8_t *redo, int64_t n, int64_t *out_offsets,
                  int32_t *out)
{
    /* cursor[i]: the pairs row i gains, then where the next one goes */
    int64_t *cursor = calloc((size_t)(n ? n : 1), sizeof *cursor);
    if (!cursor)
        return -1;
    for (int64_t t = 0; t < n; ++t)
        if (redo[t])
            for (int64_t k = b_offsets[t]; k < b_offsets[t + 1]; ++k)
                cursor[b_indices[k]] += !redo[b_indices[k]];
    out_offsets[0] = 0;
    for (int64_t i = 0; i < n; ++i) {
        int32_t *dst = out + out_offsets[i];
        int64_t len = 0;
        if (redo[i]) {
            len = b_offsets[i + 1] - b_offsets[i];
            memcpy(dst, b_indices + b_offsets[i], sizeof *dst * (size_t)len);
        } else {
            for (int64_t k = a_offsets[i]; k < a_offsets[i + 1]; ++k) {
                dst[len] = a_indices[k];
                len += !redo[a_indices[k]];
            }
        }
        const int64_t gained = cursor[i];
        cursor[i] = out_offsets[i] + len;
        out_offsets[i + 1] = cursor[i] + gained;
    }
    for (int64_t t = 0; t < n; ++t)
        if (redo[t])
            for (int64_t k = b_offsets[t]; k < b_offsets[t + 1]; ++k)
                if (!redo[b_indices[k]])
                    out[cursor[b_indices[k]]++] = (int32_t)t;
    free(cursor);
    return 0;
}

/* First slot s of bound[0..n_slots) with bound[s] >= pos. */
static int64_t rp_slot(const int64_t *bound, int64_t n_slots, int64_t pos)
{
    int64_t lo = 0, hi = n_slots;
    while (lo < hi) {
        const int64_t mid = lo + (hi - lo) / 2;
        if (bound[mid] < pos)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* Multipole moments of every node — compute_node_moments
 * (gravity/multipole.py) in C, 3-D, equal to it bit for bit.  One pass
 * over the particles in Morton order, leaf by leaf (a depth-first walk
 * meets the leaves in that order), sums the 1 + 3 + 9 + 27 + 81
 * per-particle products m, m s_a, m s_a s_b, ... (s = x - origin,
 * numpy's products in numpy's order) into one running prefix — the
 * column-wise cumsum of node_aggregate, started at -0.0 so that the
 * first sum is the first value to the bit, as cumsum's is — and records
 * it only where a leaf ends: prefix holds (leaves + 1) rows of `width`
 * values and bound the particle position of each row.  Every node's
 * range starts and ends on a leaf boundary, so its raw moments are one
 * difference of two recorded rows, prefix[pend] - prefix[pstart] as in
 * node_aggregate; the COM and the shifts to it follow, each expression
 * numpy's, operand for operand.  width = 4, 13, 40 or 121 for rank < 2,
 * 2, 3, 4; m2/m3/m4 of ranks above `rank` are not written. */
void rp_node_moments(const double *x, const double *m, const double *origin,
                     int64_t n_nodes, const int64_t *child_start,
                     const int64_t *child_count, const int64_t *pstart,
                     const int64_t *pend, const int64_t *order, int rank,
                     double *prefix, int64_t *bound, double *mass,
                     double *com, double *m2, double *m3, double *m4)
{
    const int64_t width = rank >= 4 ? 121 : rank >= 3 ? 40 : rank >= 2 ? 13 : 4;
    double run[121], w[121], raw[121];
    int64_t stack[RP_WALK_STACK], slots = 0;
    int top = 0;
    for (int64_t c = 0; c < width; ++c) {
        run[c] = -0.0;
        prefix[c] = 0.0;
    }
    bound[0] = 0;
    stack[top++] = 0;
    while (top > 0) {
        const int64_t k = stack[--top];
        if (child_count[k]) {
            for (int64_t ch = child_count[k] - 1; ch >= 0; --ch)
                stack[top++] = child_start[k] + ch;
            continue;
        }
        for (int64_t p = pstart[k]; p < pend[k]; ++p) {
            const int64_t i = order[p];
            const double s[3] = {x[3 * i] - origin[0], x[3 * i + 1] - origin[1],
                                 x[3 * i + 2] - origin[2]};
            /* Component c >= 1 of the products is its parent (c - 1) / 3
             * times s_((c - 1) % 3): m s_a, then (m s_a) s_b, ... */
            w[0] = m[i];
            for (int64_t c = 1; c < width; ++c)
                w[c] = w[(c - 1) / 3] * s[(c - 1) % 3];
            RP_EACH(c, width) run[c] += w[c];
        }
        ++slots;
        bound[slots] = pend[k];
        memcpy(prefix + slots * width, run, sizeof run[0] * width);
    }
    for (int64_t k = 0; k < n_nodes; ++k) {
        const double *lo = prefix + rp_slot(bound, slots + 1, pstart[k]) * width;
        const double *hi = prefix + rp_slot(bound, slots + 1, pend[k]) * width;
        for (int64_t c = 0; c < width; ++c)
            raw[c] = hi[c] - lo[c];
        const double mk = raw[0];
        const double safe = mk > 0.0 ? mk : 1.0;
        double X[3], xx[9];
        for (int a = 0; a < 3; ++a) {
            X[a] = raw[1 + a] / safe;
            com[3 * k + a] = X[a] + origin[a];
        }
        mass[k] = mk;
        if (rank < 2)
            continue;
        /*   M2_com = M2 - M X (x) X */
        const double *r2 = raw + 4, *r3 = raw + 13, *r4 = raw + 40;
        for (int a = 0; a < 3; ++a)
            for (int b = 0; b < 3; ++b) {
                xx[3 * a + b] = X[a] * X[b];
                m2[9 * k + 3 * a + b] = r2[3 * a + b] - mk * xx[3 * a + b];
            }
        if (rank < 3)
            continue;
        /*   M3_com = M3 - sym3(X (x) M2_raw) + 2 M X^3 */
        for (int a = 0; a < 3; ++a)
            for (int b = 0; b < 3; ++b)
                for (int c = 0; c < 3; ++c) {
                    const int abc = 9 * a + 3 * b + c;
                    const double sym = X[a] * r2[3 * b + c] + X[b] * r2[3 * a + c]
                                       + X[c] * r2[3 * a + b];
                    m3[27 * k + abc] =
                        (r3[abc] - sym) + (2.0 * mk) * (xx[3 * a + b] * X[c]);
                }
        if (rank < 4)
            continue;
        /*   M4_com = M4 - sym4(X (x) M3_raw) + sym6(X X (x) M2_raw) - 3 M X^4 */
        for (int a = 0; a < 3; ++a)
            for (int b = 0; b < 3; ++b)
                for (int c = 0; c < 3; ++c)
                    for (int d = 0; d < 3; ++d) {
                        const double sym =
                            X[a] * r3[9 * b + 3 * c + d] + X[b] * r3[9 * a + 3 * c + d]
                            + X[c] * r3[9 * a + 3 * b + d] + X[d] * r3[9 * a + 3 * b + c];
                        double pairs = 0.0;
                        pairs += xx[3 * a + b] * r2[3 * c + d];
                        pairs += xx[3 * a + c] * r2[3 * b + d];
                        pairs += xx[3 * a + d] * r2[3 * b + c];
                        pairs += xx[3 * b + c] * r2[3 * a + d];
                        pairs += xx[3 * b + d] * r2[3 * a + c];
                        pairs += xx[3 * c + d] * r2[3 * a + b];
                        const int abcd = 27 * a + 9 * b + 3 * c + d;
                        m4[81 * k + abcd] =
                            ((r4[abcd] - sym) + pairs)
                            - (3.0 * mk) * ((xx[3 * a + b] * X[c]) * X[d]);
                    }
    }
}

/* A growable interaction list in lane blocks (see RP_LANES): nf double
 * fields per entry, plus an index per entry when `indexed`.  cap stays a
 * whole number of blocks.  Memory comes from malloc in rp_gravity and
 * goes back before it returns — nothing outlives a call. */
typedef struct {
    int64_t len, cap;
    int nf, indexed;
    double *v;
    int64_t *idx;
} rp_list;

/* Field 0 of entry k; field f is f * RP_LANES further on. */
static inline double *rp_entry(const rp_list *l, int64_t k)
{
    return l->v + (k / RP_LANES) * l->nf * RP_LANES + k % RP_LANES;
}

/* Room for `need` entries; -1 when out of memory. */
static int rp_reserve(rp_list *l, int64_t need)
{
    if (need <= l->cap)
        return 0;
    int64_t cap = l->cap ? l->cap : RP_LIST_CAP0;
    while (cap < need)
        cap *= 2;
    double *v = realloc(l->v, sizeof *v * (size_t)(cap * l->nf));
    if (!v)
        return -1;
    l->v = v;
    if (l->indexed) {
        int64_t *idx = realloc(l->idx, sizeof *idx * (size_t)cap);
        if (!idx)
            return -1;
        l->idx = idx;
    }
    l->cap = cap;
    return 0;
}

/* Pad a list to whole blocks with copies of its last entry whose fields
 * from `zero_from` on (the weight and moments) are 0; returns the padded
 * length (within cap: cap is whole blocks). */
static int64_t rp_pad(rp_list *l, int zero_from)
{
    const int64_t len = l->len;
    const int64_t padded = (len + RP_LANES - 1) / RP_LANES * RP_LANES;
    for (int64_t k = len; k < padded; ++k) {
        const double *src = rp_entry(l, len - 1);
        double *dst = rp_entry(l, k);
        for (int f = 0; f < l->nf; ++f)
            dst[f * RP_LANES] = f < zero_from ? src[f * RP_LANES] : 0.0;
        if (l->indexed)
            l->idx[k] = l->idx[len - 1];
    }
    return padded;
}

/* The 6 pair classes of a 3x3 matrix q: diagonal, then the averaged
 * off-diagonal copies (a symmetric matrix meets d as a vector). */
static void rp_pack_sym(const double *q, double *out)
{
    for (int c = 0; c < 6; ++c)
        out[c] = 0.0;
    for (int ab = 0; ab < 9; ++ab)
        out[RP_PAIR_CLASS[ab]] += q[ab];
    for (int c = 3; c < 6; ++c)
        out[c] *= 0.5;
}

/* The packed fields (RP_G_*) of node s from its dense moments. */
static void rp_pack_node(const double *mass, const double *com,
                         const double *m2, const double *m3,
                         const double *m4, int rank, int64_t s, double *out)
{
    for (int a = 0; a < 3; ++a)
        out[RP_G_CX + a] = com[3 * s + a];
    out[RP_G_MASS] = mass[s];
    if (rank < 2)
        return;
    const double *q = m2 + 9 * s;
    rp_pack_sym(q, out + RP_G_M2);
    out[RP_G_TR2] = q[0] + q[4] + q[8];
    if (rank < 3)
        return;
    q = m3 + 27 * s;
    for (int c = 0; c < 18; ++c)
        out[RP_G_M3 + c] = 0.0;
    for (int ab = 0; ab < 9; ++ab)
        for (int e = 0; e < 3; ++e)
            out[RP_G_M3 + 6 * e + RP_PAIR_CLASS[ab]] += q[3 * ab + e];
    for (int e = 0; e < 3; ++e)
        out[RP_G_T3 + e] = q[e] + q[12 + e] + q[24 + e];
    if (rank < 4)
        return;
    q = m4 + 81 * s;
    double t4[9];
    for (int c = 0; c < 30; ++c)
        out[RP_G_M4 + c] = 0.0;
    for (int abc = 0; abc < 27; ++abc)
        for (int e = 0; e < 3; ++e)
            out[RP_G_M4 + 10 * e + RP_TRIPLE_CLASS[abc]] += q[3 * abc + e];
    for (int bc = 0; bc < 9; ++bc)
        t4[bc] = q[bc] + q[36 + bc] + q[72 + bc];
    rp_pack_sym(t4, out + RP_G_T4);
    out[RP_G_TT4] = t4[0] + t4[4] + t4[8];
}

/* Barnes-Hut gravity, one target leaf at a time — barnes_hut_gravity
 * (gravity/barnes_hut.py) in C, 3-D.  For each leaf a depth-first walk
 * from the root applies the MAC to every source node it meets:
 *     size(source) <= theta * dist(leaf box, source COM),  dist > 0
 * with size = 2*max(half) and dist from sum_of_squares of the per-axis
 * excess, the numpy expressions term for term (this section never fuses
 * a multiply-add), so both renderings accept, open and P2P the same
 * nodes.  The walk only collects: an accepted node joins the leaf's M2P
 * list (its moments packed once per call, rp_pack_node), the particles
 * of a source leaf that fails the MAC join its P2P list (x, y, z, G*m,
 * index).  rp_m2p_leaf and rp_p2p_list then sum both lists into each
 * particle of the leaf, whose acc/phi rows are written — so a leaf's
 * result does not depend on which other leaves are in the call (rows of
 * particles outside `leaves` are not touched).  counts[0] += P2P pairs
 * (self pairs included, as the reference counts them), counts[1] += M2P
 * terms.  Returns 0, or -1 when the lists could not be allocated. */
int rp_gravity(const double *x, const double *m, const int64_t *leaves,
               int64_t n_leaves, int64_t n_nodes, const double *center,
               const double *half, const int64_t *child_start,
               const int64_t *child_count, const int64_t *pstart,
               const int64_t *pend, const int64_t *order,
               const double *mass, const double *com, const double *m2,
               const double *m3, const double *m4, int rank, double theta,
               double g_const, double eps2, double *acc, double *phi,
               int64_t *counts)
{
    const int nf = rp_m2p_fields(rank);
    int64_t widest = 0;
    for (int64_t l = 0; l < n_leaves; ++l)
        if (pend[leaves[l]] - pstart[leaves[l]] > widest)
            widest = pend[leaves[l]] - pstart[leaves[l]];
    const size_t lane_row = 4 * RP_LANES;
    double *packed = malloc(sizeof *packed * (size_t)(n_nodes * nf));
    double *lanes = malloc(sizeof *lanes * lane_row * (size_t)(widest + 1));
    rp_list far = {0, 0, nf, 0, 0, 0}, near = {0, 0, 4, 1, 0, 0};
    int64_t stack[RP_WALK_STACK];
    int status = -1;
    if (!packed || !lanes || rp_reserve(&far, 1) || rp_reserve(&near, 1))
        goto out;
    for (int64_t s = 0; s < n_nodes; ++s)
        rp_pack_node(mass, com, m2, m3, m4, rank, s, packed + s * nf);
    for (int64_t l = 0; l < n_leaves; ++l) {
        const int64_t t = leaves[l];
        const int64_t t0 = pstart[t], t1 = pend[t];
        int top = 0;
        far.len = near.len = 0;
        stack[top++] = 0;
        while (top > 0) {
            const int64_t s = stack[--top];
            double d2 = 0.0, hmax = half[3 * s];
            for (int d = 0; d < 3; ++d) {
                const double e = fabs(com[3 * s + d] - center[3 * t + d])
                                 - half[3 * t + d];
                if (e > 0.0)
                    d2 += e * e;
                if (half[3 * s + d] > hmax)
                    hmax = half[3 * s + d];
            }
            const double dist = sqrt(d2);
            if (2.0 * hmax <= theta * dist && dist > 0.0) {
                if (rp_reserve(&far, far.len + 1))
                    goto out;
                double *dst = rp_entry(&far, far.len++);
                for (int f = 0; f < nf; ++f)
                    dst[f * RP_LANES] = packed[s * nf + f];
                continue;
            }
            const int64_t nchild = child_count[s];
            for (int64_t ch = 0; ch < nchild; ++ch)
                stack[top++] = child_start[s] + ch;
            if (nchild)
                continue;
            if (rp_reserve(&near, near.len + pend[s] - pstart[s]))
                goto out;
            for (int64_t q = pstart[s]; q < pend[s]; ++q) {
                const int64_t j = order[q];
                double *dst = rp_entry(&near, near.len);
                dst[0] = x[3 * j];
                dst[RP_LANES] = x[3 * j + 1];
                dst[2 * RP_LANES] = x[3 * j + 2];
                dst[3 * RP_LANES] = g_const * m[j];
                near.idx[near.len++] = j;
            }
        }
        counts[0] += (t1 - t0) * near.len;
        counts[1] += (t1 - t0) * far.len;
        const int64_t n_far = rp_pad(&far, RP_G_MASS);
        const int64_t n_near = rp_pad(&near, 3);
        memset(lanes, 0, sizeof *lanes * lane_row * (size_t)(t1 - t0));
        rp_m2p_leaf(rank, far.v, n_far, x, order, t0, t1, lanes);
        for (int64_t p = t0; p < t1; ++p) {
            const int64_t i = order[p];
            const double *fa = lanes + (p - t0) * lane_row;
            double na[4];
            rp_p2p_list(near.v, near.idx, n_near, x + 3 * i, i, eps2, na);
            for (int e = 0; e < 3; ++e)
                acc[3 * i + e] = g_const * rp_lane_sum(fa + e * RP_LANES) - na[e];
            phi[i] = -(g_const * rp_lane_sum(fa + 3 * RP_LANES)) - na[3];
        }
    }
    status = 0;
out:
    free(packed);
    free(lanes);
    free(far.v);
    free(near.v);
    free(near.idx);
    return status;
}
"""

SOURCE = _HELPERS + _GRAVITY_TABLES + _OPS


def source_fingerprint() -> str:
    """Hashable identity of the generated source (build-cache key)."""
    import hashlib

    return hashlib.sha256(SOURCE.encode()).hexdigest()[:16]
