"""C source for the runtime-compiled (cffi) backend.

One translation unit holding the fused pair-loop kernels, the neighbour
search and the Barnes-Hut gravity walk.  Every loop
mirrors the numpy reference arithmetic *operation for operation* (same
association order, same special-case masks) so that:

* pure-rational fields (``dx``, ``r``, the neighbour-count predicate
  ``r <= 2*h[i]``) are **bitwise identical** to numpy — the smoothing
  -length iteration therefore takes the same trajectory on every
  backend;
* transcendental-touched fields (kernel values, gradients, forces)
  agree to a few ulp, gated by the documented backend tolerance.

Design notes:

* ``h``-dependent normalizations ``sigma/h**dim`` / ``sigma/h**(dim+1)``
  arrive as precomputed per-particle arrays (``whn``/``whn1``) —
  computed in Python with the same numpy ufuncs as the reference, which
  removes ``pow`` from the inner loops *and* makes those factors
  bitwise-equal by construction.
* The minimum-image convention is one expression for every box: per-axis
  ``psel`` (span or 0) and ``pdiv`` (span or inf) turn the periodic wrap
  into ``dx -= psel * rint(dx / pdiv)``, the identity on open axes and a
  bitwise mirror of ``out -= span * np.round(out / span)`` on periodic
  ones (``np.round`` at 0 decimals is ``rint``: round half to even).  It
  is applied only where ``|dx| > pdiv/2`` — elsewhere it is the identity
  too — so a pair that does not cross the seam pays no division.
* ``sin``/``cos`` for the sinc-family kernels use the shared Taylor
  polynomials (:mod:`repro.backend.poly`) after an exact split-at-pi/2
  reduction; integer powers use multiply chains.  No ``-ffast-math``
  anywhere.  The compiler may still contract ``a*b + c`` into one FMA
  in the pair loops (an ulp, inside the backend tolerance); the last
  section of the unit — neighbour search and the gravity walk —
  switches that off, because there an ulp decides whether a pair on
  the cutoff is a neighbour, or a node on the opening angle is opened.
* Row accumulations walk each CSR row in ascending pair order, the same
  order ``np.bincount`` applies its weights, so row sums match the
  reference given identical per-pair values.
"""

from __future__ import annotations

from .poly import COS_COEFFS, PI_LO, SIN_COEFFS

__all__ = ["CDEF", "SOURCE", "source_fingerprint"]

#: Declarations for ``ffi.cdef``.  ``want`` bits: 1 = W, 2 = dW/dr / r,
#: 4 = dW/dh.  ``side``: 0 = evaluate with h[i] (row side), 1 = with
#: h[j] (neighbour side).
CDEF = """
void rp_pair_kernel(const double *x, const double *h, const double *whn,
                    const double *whn1, const int64_t *offsets,
                    const int64_t *indices, int64_t lo, int64_t hi, int dim,
                    const double *psel, const double *pdiv, int kind,
                    double p1, int want, int side, double *w, double *gs,
                    double *dwdh);
void rp_rowsum(const int64_t *offsets, const int64_t *indices, int64_t lo,
               int64_t hi, const double *wgt, const double *vals,
               double *out);
void rp_iad_tau(const double *x, const int64_t *offsets,
                const int64_t *indices, int64_t lo, int64_t hi, int dim,
                const double *psel, const double *pdiv, const double *m,
                const double *rho, const double *w, double *tau);
void rp_div_curl(const double *x, const double *v, const int64_t *offsets,
                 const int64_t *indices, int64_t lo, int64_t hi, int dim,
                 const double *psel, const double *pdiv, const double *m,
                 const double *gs, double *divsum, double *curlsum);
double rp_forces(const double *x, const double *v, const double *h,
                 const double *m, const double *rho, const double *p_over,
                 const double *cs, const int64_t *offsets,
                 const int64_t *indices, int64_t lo, int64_t hi, int dim,
                 const double *psel, const double *pdiv, const double *wi,
                 const double *wj, const double *gsi, const double *gsj,
                 int use_iad, const double *cmat, const double *bals,
                 int use_balsara, double alpha, double beta, double eta2,
                 double support, int inline_j, int kind, double p1,
                 const double *whn, const double *whn1, double *out_a,
                 double *out_s1, double *out_s2);
void rp_radii(const double *x, const int64_t *offsets,
              const int64_t *indices, int64_t lo, int64_t hi, int dim,
              const double *psel, const double *pdiv, double *out_r);
void rp_counts_r(const double *r, const double *h, const int64_t *offsets,
                 int64_t n, double factor, int64_t *counts);
void rp_filter_count(const int64_t *offsets, const int64_t *indices,
                     const double *r, const double *h, int64_t n,
                     double support, int64_t *kept);
void rp_filter_fill(const int64_t *offsets, const int64_t *indices,
                    const double *r, const double *h, int64_t n,
                    double support, const int64_t *new_offsets,
                    int64_t *new_indices);
void rp_tau_inv(const double *tau, int64_t rows, int dim, double rcond,
                double *out);
void rp_node_bounds(const double *xs, const double *rs, int64_t n, int dim,
                    int64_t n_nodes, const int64_t *child_start,
                    const int64_t *child_count, const int64_t *pstart,
                    const int64_t *pend, double *lo, double *hi,
                    double *rmax);
void rp_walk(const double *xs, const double *rs, int64_t n, int dim,
             int symmetric, const double *psel, const double *pdiv,
             int64_t n_nodes, const int64_t *child_start,
             const int64_t *child_count, const int64_t *pstart,
             const int64_t *pend, const int64_t *order, const double *lo,
             const double *hi, const double *rmax, int include_self,
             const int64_t *offsets, int64_t *cursor, int64_t *out);
void rp_sort_rows(const int64_t *offsets, int64_t n, int64_t *indices);
void rp_pairs_within(const double *xw, const double *radii,
                     const int64_t *offsets, const int64_t *indices,
                     int64_t n, int dim, const double *psel,
                     const double *pdiv, int64_t *new_offsets, int64_t *out);
void rp_gravity(const double *x, const double *m, const int64_t *leaves,
                int64_t n_leaves, const double *center, const double *half,
                const int64_t *child_start, const int64_t *child_count,
                const int64_t *pstart, const int64_t *pend,
                const int64_t *order, const double *mass, const double *com,
                const double *m2, const double *m3, const double *m4,
                int rank, double theta, double g_const, double eps2,
                double *acc, double *phi, int64_t *counts);
"""


def _literals(name: str, coeffs) -> str:
    return "\n".join(
        f"static const double {name}{k + 1} = {c!r};"
        for k, c in enumerate(coeffs)
    )


_HELPERS = f"""
#include <stdint.h>
#include <math.h>

static const double RP_PI_LO = {PI_LO!r};

{_literals("RP_S", SIN_COEFFS)}
{_literals("RP_C", COS_COEFFS)}

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

/* sin and cos of x in [0, pi): reflect about pi/2 with a two-part pi so
 * relative accuracy survives at both ends of the interval. */
static inline void rp_sincos(double x, double *sx, double *cx)
{{
    if (x <= M_PI_2) {{
        *sx = rp_sinpoly(x);
        *cx = rp_cospoly(x);
    }} else {{
        const double z = (M_PI - x) + RP_PI_LO;
        *sx = rp_sinpoly(z);
        *cx = -rp_cospoly(z);
    }}
}}

/* a**n for small non-negative integer n by binary multiply chain. */
static inline double rp_powi(double a, int n)
{{
    double r = 1.0;
    while (n > 0) {{
        if (n & 1)
            r *= a;
        a *= a;
        n >>= 1;
    }}
    return r;
}}

/* a**e, shortcutting small integer exponents to multiply chains. */
static inline double rp_pow_pos(double a, double e)
{{
    const double ri = rint(e);
    if (e == ri && ri >= 0.0 && ri <= 32.0)
        return rp_powi(a, (int)ri);
    return pow(a, e);
}}

/* Minimum image of one separation component, t - psel*rint(t/pdiv),
 * skipped where it is the identity: for |t| <= pdiv/2 the correctly
 * rounded quotient is at most 0.5 in magnitude, rint gives +-0 and the
 * subtraction returns t.  An open axis has pdiv = inf and never wraps.
 * Between box-wrapped positions |t| < pdiv, so rint is 0 or +-1 and
 * psel*rint is exact: there the result does not depend on whether the
 * compiler fuses the product into the subtraction — the searches, where
 * every bit counts, only ever pass wrapped positions. */
static inline double rp_wrap(double t, double psel, double pdiv)
{{
    if (fabs(t) > 0.5 * pdiv)
        t -= psel * rint(t / pdiv);
    return t;
}}

/* Minimum-image separation and distance, mirroring pair_geometry:
 * dx = x[i]-x[j]; per-axis wrap; r = sqrt(sum dx*dx) in axis order.
 * The axes are written out: as a loop over d, gcc 12 if-converts the
 * wrap into masked vector code and rp_forces runs a third slower. */
static inline double rp_sep(const double *x, int64_t ii, int64_t jj, int dim,
                            const double *psel, const double *pdiv,
                            double *dx)
{{
    const double *xi = x + ii * dim, *xj = x + jj * dim;
    double r2 = 0.0;
    dx[0] = rp_wrap(xi[0] - xj[0], psel[0], pdiv[0]);
    r2 += dx[0] * dx[0];
    if (dim > 1) {{
        dx[1] = rp_wrap(xi[1] - xj[1], psel[1], pdiv[1]);
        r2 += dx[1] * dx[1];
    }}
    if (dim > 2) {{
        dx[2] = rp_wrap(xi[2] - xj[2], psel[2], pdiv[2]);
        r2 += dx[2] * dx[2];
    }}
    return sqrt(r2);
}}

/* Kernel shape f(q) and f'(q).  kind: 0 = M4 cubic spline, 1/2/3 =
 * Wendland C2/C4/C6 (p1 = the kernel's 1-D/3-D shape hint), 4 = sinc
 * (p1 = exponent).  Each branch mirrors the numpy shape functions'
 * exact operation order. */
static inline void rp_shape(int kind, double p1, double q, int need_f,
                            int need_fp, double *f, double *fp)
{{
    *f = 0.0;
    *fp = 0.0;
    switch (kind) {{
    case 0: {{ /* M4 cubic spline */
        if (q < 1.0) {{
            if (need_f)
                *f = (1.0 - (1.5 * q) * q) + (((0.75 * q) * q) * q);
            if (need_fp)
                *fp = (-3.0 * q) + ((2.25 * q) * q);
        }} else if (q < 2.0) {{
            const double t = 2.0 - q;
            if (need_f)
                *f = 0.25 * ((t * t) * t);
            if (need_fp)
                *fp = -0.75 * (t * t);
        }}
        break;
    }}
    case 1: {{ /* Wendland C2 */
        const double l = 0.5 * q;
        const double p = 1.0 - l;
        const double pm = p > 0.0 ? p : 0.0;
        const double p2 = pm * pm;
        if (p1 == 1.0) {{
            if (need_f)
                *f = (p2 * pm) * (1.0 + 3.0 * l);
            if (need_fp)
                *fp = 0.5 * ((-12.0 * l) * p2);
        }} else {{
            if (need_f)
                *f = (p2 * p2) * (1.0 + 4.0 * l);
            if (need_fp)
                *fp = 0.5 * ((-20.0 * l) * (p2 * pm));
        }}
        break;
    }}
    case 2: {{ /* Wendland C4 */
        const double l = 0.5 * q;
        const double p = 1.0 - l;
        const double pm = p > 0.0 ? p : 0.0;
        const double p2 = pm * pm;
        const double p4 = p2 * p2;
        if (p1 == 1.0) {{
            if (need_f)
                *f = (p4 * pm) * ((1.0 + 5.0 * l) + (8.0 * l) * l);
            if (need_fp)
                *fp = 0.5 * ((-p4) * ((14.0 * l) + (56.0 * l) * l));
        }} else {{
            if (need_f)
                *f = (p4 * p2)
                     * ((1.0 + 6.0 * l) + ((35.0 / 3.0) * l) * l);
            if (need_fp)
                *fp = 0.5 * ((-(p4 * pm))
                             * (((56.0 / 3.0) * l)
                                + ((280.0 / 3.0) * l) * l));
        }}
        break;
    }}
    case 3: {{ /* Wendland C6 */
        const double l = 0.5 * q;
        const double p = 1.0 - l;
        const double pm = p > 0.0 ? p : 0.0;
        const double p2 = pm * pm;
        const double p4 = p2 * p2;
        if (p1 == 1.0) {{
            if (need_f)
                *f = ((p4 * p2) * pm)
                     * (((1.0 + 7.0 * l) + (19.0 * l) * l)
                        + 21.0 * ((l * l) * l));
            if (need_fp)
                *fp = 0.5 * ((((-6.0) * (p4 * p2)) * l)
                             * (((35.0 * l) * l + (18.0 * l)) + 3.0));
        }} else {{
            if (need_f)
                *f = (p4 * p4)
                     * (((1.0 + 8.0 * l) + (25.0 * l) * l)
                        + 32.0 * ((l * l) * l));
            if (need_fp)
                *fp = 0.5 * (((((-22.0) * ((p4 * p2) * pm)) * l))
                             * (((16.0 * l) * l + (7.0 * l)) + 1.0));
        }}
        break;
    }}
    case 4: {{ /* sinc^n */
        if (q <= 0.0) {{
            if (q == 0.0)
                *f = 1.0;
            break;
        }}
        if (q >= 2.0)
            break;
        const double xv = M_PI * (0.5 * q);
        double sx, cx;
        rp_sincos(xv, &sx, &cx);
        const double s = sx / xv;
        if (need_f)
            *f = rp_pow_pos(fabs(s), p1);
        if (need_fp) {{
            const double dsdq = (0.5 * M_PI) * ((cx - s) / xv);
            const double sgn = (s > 0.0) ? 1.0 : ((s < 0.0) ? -1.0 : 0.0);
            *fp = ((p1 * rp_pow_pos(fabs(s), p1 - 1.0)) * sgn) * dsdq;
        }}
        break;
    }}
    }}
}}
"""

_OPS = """
/* Fused per-pair kernel products over CSR rows [lo, hi): q = r/h_side,
 * W = whn_side*f(q), grad scale = (whn1_side*f'(q))/r (0 at r = 0),
 * dW/dh = -whn1_side*(dim*f + q*f'), written at pair offset k-offsets[lo]
 * for whichever of w/gs/dwdh the want bits select. */
void rp_pair_kernel(const double *x, const double *h, const double *whn,
                    const double *whn1, const int64_t *offsets,
                    const int64_t *indices, int64_t lo, int64_t hi, int dim,
                    const double *psel, const double *pdiv, int kind,
                    double p1, int want, int side, double *w, double *gs,
                    double *dwdh)
{
    const int64_t k0 = offsets[lo];
    const int need_f = (want & 1) || (want & 4);
    const int need_fp = (want & 2) || (want & 4);
    for (int64_t i = lo; i < hi; ++i) {
        const double hi_ = h[i];
        const double wni = whn[i];
        const double wn1i = whn1[i];
        for (int64_t k = offsets[i]; k < offsets[i + 1]; ++k) {
            const int64_t j = indices[k];
            double dx[3];
            const double r = rp_sep(x, i, j, dim, psel, pdiv, dx);
            double hs, wn, wn1;
            if (side == 0) {
                hs = hi_;
                wn = wni;
                wn1 = wn1i;
            } else {
                hs = h[j];
                wn = whn[j];
                wn1 = whn1[j];
            }
            const double q = r / hs;
            double f, fp;
            rp_shape(kind, p1, q, need_f, need_fp, &f, &fp);
            const int64_t o = k - k0;
            if (want & 1)
                w[o] = wn * f;
            if (want & 2) {
                const double dwdr = wn1 * fp;
                gs[o] = (r > 0.0) ? dwdr / r : 0.0;
            }
            if (want & 4)
                dwdh[o] = (-wn1) * ((double)dim * f + q * fp);
        }
    }
}

/* Row sums of wgt[j] * vals[pair] in ascending pair order (the order
 * np.bincount applies weights). */
void rp_rowsum(const int64_t *offsets, const int64_t *indices, int64_t lo,
               int64_t hi, const double *wgt, const double *vals,
               double *out)
{
    const int64_t k0 = offsets[lo];
    for (int64_t i = lo; i < hi; ++i) {
        double acc = 0.0;
        for (int64_t k = offsets[i]; k < offsets[i + 1]; ++k)
            acc += wgt[indices[k]] * vals[k - k0];
        out[i - lo] = acc;
    }
}

/* IAD tau accumulation: sum over pairs of (dx_a*dx_b) * ((m_j/rho_j)*w).
 * Regularization and inversion stay in numpy. */
void rp_iad_tau(const double *x, const int64_t *offsets,
                const int64_t *indices, int64_t lo, int64_t hi, int dim,
                const double *psel, const double *pdiv, const double *m,
                const double *rho, const double *w, double *tau)
{
    const int64_t k0 = offsets[lo];
    const int dd = dim * dim;
    for (int64_t i = lo; i < hi; ++i) {
        double acc[9];
        for (int a = 0; a < dd; ++a)
            acc[a] = 0.0;
        for (int64_t k = offsets[i]; k < offsets[i + 1]; ++k) {
            const int64_t j = indices[k];
            double dx[3];
            rp_sep(x, i, j, dim, psel, pdiv, dx);
            const double wgt = (m[j] / rho[j]) * w[k - k0];
            for (int a = 0; a < dim; ++a)
                for (int b = 0; b < dim; ++b)
                    acc[a * dim + b] += (dx[a] * dx[b]) * wgt;
        }
        for (int a = 0; a < dd; ++a)
            tau[(i - lo) * dd + a] = acc[a];
    }
}

/* Velocity divergence/curl pair sums with standard gradients
 * grad = dx * gs.  Python finishes the normalization by rho. */
void rp_div_curl(const double *x, const double *v, const int64_t *offsets,
                 const int64_t *indices, int64_t lo, int64_t hi, int dim,
                 const double *psel, const double *pdiv, const double *m,
                 const double *gs, double *divsum, double *curlsum)
{
    const int64_t k0 = offsets[lo];
    for (int64_t i = lo; i < hi; ++i) {
        double dacc = 0.0, c0 = 0.0, c1 = 0.0, c2 = 0.0;
        for (int64_t k = offsets[i]; k < offsets[i + 1]; ++k) {
            const int64_t j = indices[k];
            double dx[3];
            rp_sep(x, i, j, dim, psel, pdiv, dx);
            const double g = gs[k - k0];
            const double mj = m[j];
            double vij[3], grad[3];
            double vg = 0.0;
            for (int d = 0; d < dim; ++d) {
                vij[d] = v[i * dim + d] - v[j * dim + d];
                grad[d] = dx[d] * g;
                vg += vij[d] * grad[d];
            }
            dacc += mj * vg;
            if (dim == 3) {
                double t = vij[1] * grad[2] - vij[2] * grad[1];
                c0 += mj * t;
                t = vij[2] * grad[0] - vij[0] * grad[2];
                c1 += mj * t;
                t = vij[0] * grad[1] - vij[1] * grad[0];
                c2 += mj * t;
            } else if (dim == 2) {
                const double t = vij[0] * grad[1] - vij[1] * grad[0];
                c0 += mj * t;
            }
        }
        divsum[i - lo] = dacc;
        curlsum[(i - lo) * 3 + 0] = c0;
        curlsum[(i - lo) * 3 + 1] = c1;
        curlsum[(i - lo) * 3 + 2] = c2;
    }
}

/* Fused momentum + energy pair loop.  Per-pair gradients come either
 * from the IAD matrices (use_iad, with per-pair wi/wj) or from the
 * standard per-pair scales gsi/gsj (grad = dx*gs).  With inline_j the
 * neighbour-side product (wj or gsj) is evaluated in-loop via rp_shape
 * — the same arithmetic as the dedicated side=1 rp_pair_kernel pass,
 * so results are bitwise what the precomputed-array path produces
 * while an entire pair pass is saved.  Writes the row sums of the
 * acceleration pairs, of m_j*(v_ij . g_i) (s1) and of
 * (m_j*pi_ij)*(v_ij . gbar) (s2); Python combines du = p_over*s1 +
 * 0.5*s2.  Returns max |mu| over approaching pairs within the kernel
 * support (the viscous signal-speed term of the CFL). */
double rp_forces(const double *x, const double *v, const double *h,
                 const double *m, const double *rho, const double *p_over,
                 const double *cs, const int64_t *offsets,
                 const int64_t *indices, int64_t lo, int64_t hi, int dim,
                 const double *psel, const double *pdiv, const double *wi,
                 const double *wj, const double *gsi, const double *gsj,
                 int use_iad, const double *cmat, const double *bals,
                 int use_balsara, double alpha, double beta, double eta2,
                 double support, int inline_j, int kind, double p1,
                 const double *whn, const double *whn1, double *out_a,
                 double *out_s1, double *out_s2)
{
    const int64_t k0 = offsets[lo];
    const int dd = dim * dim;
    double max_mu = 0.0;
    for (int64_t i = lo; i < hi; ++i) {
        double acc[3] = {0.0, 0.0, 0.0};
        double s1 = 0.0, s2 = 0.0;
        const double hii = h[i];
        const double poi = p_over[i];
        const double csi = cs[i];
        const double rhoi = rho[i];
        const double bi = use_balsara ? bals[i] : 0.0;
        for (int64_t k = offsets[i]; k < offsets[i + 1]; ++k) {
            const int64_t j = indices[k];
            const int64_t o = k - k0;
            double dx[3];
            const double r = rp_sep(x, i, j, dim, psel, pdiv, dx);
            const double hj = h[j];
            double vij[3];
            for (int d = 0; d < dim; ++d)
                vij[d] = v[i * dim + d] - v[j * dim + d];
            double gi[3], gj[3];
            if (use_iad) {
                const double wio = wi[o];
                double wjo;
                if (inline_j) {
                    double f, fp;
                    rp_shape(kind, p1, r / hj, 1, 0, &f, &fp);
                    wjo = whn[j] * f;
                } else {
                    wjo = wj[o];
                }
                const double *ci = cmat + i * dd;
                const double *cj = cmat + j * dd;
                for (int a = 0; a < dim; ++a) {
                    double ai = 0.0, aj = 0.0;
                    for (int b = 0; b < dim; ++b) {
                        const double tj = -dx[b];
                        ai += ci[a * dim + b] * tj;
                        aj += cj[a * dim + b] * tj;
                    }
                    gi[a] = ai * wio;
                    gj[a] = aj * wjo;
                }
            } else {
                const double gio = gsi[o];
                double gjo;
                if (inline_j) {
                    double f, fp;
                    rp_shape(kind, p1, r / hj, 0, 1, &f, &fp);
                    const double dwdr = whn1[j] * fp;
                    gjo = (r > 0.0) ? dwdr / r : 0.0;
                } else {
                    gjo = gsj[o];
                }
                for (int d = 0; d < dim; ++d) {
                    gi[d] = dx[d] * gio;
                    gj[d] = dx[d] * gjo;
                }
            }
            double vdotr = 0.0;
            for (int d = 0; d < dim; ++d)
                vdotr += vij[d] * dx[d];
            const double hbar = (hii + hj) * 0.5;
            double mu = hbar * vdotr;
            double denom = r * r;
            double eta_h = hbar * eta2;
            eta_h *= hbar;
            denom += eta_h;
            mu /= denom;
            const double cbar = 0.5 * (csi + cs[j]);
            const double rhobar = 0.5 * (rhoi + rho[j]);
            double pi_ = ((-alpha) * cbar * mu + (beta * mu) * mu) / rhobar;
            if (use_balsara)
                pi_ = (pi_ * 0.5) * (bi + bals[j]);
            const int approaching = vdotr < 0.0;
            if (!approaching)
                pi_ = 0.0;
            const double poj = p_over[j];
            const double mj = m[j];
            double vdot_gi = 0.0, vdot_gbar = 0.0;
            for (int d = 0; d < dim; ++d) {
                const double gbar = (gi[d] + gj[d]) * 0.5;
                vdot_gi += vij[d] * gi[d];
                vdot_gbar += vij[d] * gbar;
                const double pres = poi * gi[d] + poj * gj[d];
                acc[d] += (-mj) * (pres + pi_ * gbar);
            }
            s1 += mj * vdot_gi;
            s2 += (mj * pi_) * vdot_gbar;
            const double hmax = (hii > hj ? hii : hj) * support;
            if (approaching && r <= hmax) {
                const double am = fabs(mu);
                if (am > max_mu)
                    max_mu = am;
            }
        }
        for (int d = 0; d < dim; ++d)
            out_a[(i - lo) * dim + d] = acc[d];
        out_s1[i - lo] = s1;
        out_s2[i - lo] = s2;
    }
    return max_mu;
}

/* Per-pair distances over CSR rows [lo, hi), same rp_sep arithmetic as
 * the fused ops — one pass per step serves the h-iteration's repeated
 * count sweeps and the support filter below. */
void rp_radii(const double *x, const int64_t *offsets,
              const int64_t *indices, int64_t lo, int64_t hi, int dim,
              const double *psel, const double *pdiv, double *out_r)
{
    const int64_t k0 = offsets[lo];
    for (int64_t i = lo; i < hi; ++i) {
        for (int64_t k = offsets[i]; k < offsets[i + 1]; ++k) {
            double dx[3];
            out_r[k - k0] = rp_sep(x, i, indices[k], dim, psel, pdiv, dx);
        }
    }
}

/* Neighbour counts from precomputed radii: r <= factor*h[i] on the
 * rp_sep radii is pure rational arithmetic, bitwise the numpy
 * h-iteration's predicate, and each sweep costs one branchless compare
 * per pair instead of a separation pass. */
void rp_counts_r(const double *r, const double *h, const int64_t *offsets,
                 int64_t n, double factor, int64_t *counts)
{
    for (int64_t i = 0; i < n; ++i) {
        const double rmax = factor * h[i];
        int64_t c = 0;
        for (int64_t k = offsets[i]; k < offsets[i + 1]; ++k)
            c += (r[k] <= rmax);
        counts[i] = c;
    }
}

/* Support filter, counting pass: per row, how many pairs fall within
 * support*max(h_i, h_j) — exactly the rp_forces in-support predicate,
 * and a superset of either side's kernel support, so every dropped
 * pair contributes an exact 0.0 to every pair sum. */
void rp_filter_count(const int64_t *offsets, const int64_t *indices,
                     const double *r, const double *h, int64_t n,
                     double support, int64_t *kept)
{
    for (int64_t i = 0; i < n; ++i) {
        const double hi_ = h[i];
        int64_t c = 0;
        for (int64_t k = offsets[i]; k < offsets[i + 1]; ++k) {
            const double hj = h[indices[k]];
            const double hmax = (hi_ > hj ? hi_ : hj) * support;
            c += (r[k] <= hmax);
        }
        kept[i] = c;
    }
}

/* Support filter, fill pass: write the kept pairs' particle indices in
 * ascending pair order (row sums over the sub-list therefore add the
 * surviving terms in the same order as the full list). */
void rp_filter_fill(const int64_t *offsets, const int64_t *indices,
                    const double *r, const double *h, int64_t n,
                    double support, const int64_t *new_offsets,
                    int64_t *new_indices)
{
    for (int64_t i = 0; i < n; ++i) {
        const double hi_ = h[i];
        int64_t p = new_offsets[i];
        for (int64_t k = offsets[i]; k < offsets[i + 1]; ++k) {
            const int64_t j = indices[k];
            const double hj = h[j];
            const double hmax = (hi_ > hj ? hi_ : hj) * support;
            if (r[k] <= hmax)
                new_indices[p++] = j;
        }
    }
}

/* Regularized batched inversion of the IAD moment matrices: add
 * fmax(trace*rcond, 1e-300) to the diagonal (the reference expression)
 * then invert in closed form — adjugate/det for 2x2/3x3, reciprocal in
 * 1-D.  Differs from LAPACK at rounding level only; covered by the
 * documented backend tolerance. */
void rp_tau_inv(const double *tau, int64_t rows, int dim, double rcond,
                double *out)
{
    const int dd = dim * dim;
    for (int64_t i = 0; i < rows; ++i) {
        const double *t = tau + i * dd;
        double *o = out + i * dd;
        if (dim == 1) {
            const double reg = fmax(t[0] * rcond, 1e-300);
            o[0] = 1.0 / (t[0] + reg);
        } else if (dim == 2) {
            const double reg = fmax((t[0] + t[3]) * rcond, 1e-300);
            const double a = t[0] + reg, b = t[1];
            const double c = t[2], d = t[3] + reg;
            const double det = a * d - b * c;
            o[0] = d / det;
            o[1] = -b / det;
            o[2] = -c / det;
            o[3] = a / det;
        } else {
            const double reg = fmax((t[0] + t[4] + t[8]) * rcond, 1e-300);
            const double a = t[0] + reg, b = t[1], c = t[2];
            const double d = t[3], e = t[4] + reg, f = t[5];
            const double g = t[6], hh = t[7], k = t[8] + reg;
            const double A = e * k - f * hh;
            const double B = f * g - d * k;
            const double C = d * hh - e * g;
            const double det = a * A + b * B + c * C;
            o[0] = A / det;
            o[1] = (c * hh - b * k) / det;
            o[2] = (b * f - c * e) / det;
            o[3] = B / det;
            o[4] = (a * k - c * g) / det;
            o[5] = (c * d - a * f) / det;
            o[6] = C / det;
            o[7] = (b * g - a * hh) / det;
            o[8] = (a * e - b * d) / det;
        }
    }
}

/* ---- Neighbour search and gravity walk.  From here to the end of the
 * unit a*b + c is never contracted into a fused multiply-add: a search
 * decides set membership on r2 <= cutoff*cutoff (the gravity MAC on
 * size <= theta*dist), and a value that differs from numpy's in its
 * last bit moves a pair sitting on the cutoff (a node on the opening
 * angle) to the other side (the pair loops above only feed sums, where
 * the ulp is covered by the backend tolerance, and keep the FMAs). ---- */
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC optimize("fp-contract=off") /* gcc ignores the ISO pragma */
#else
#pragma STDC FP_CONTRACT OFF
#endif

/* Pair acceptance of a symmetric search, mirroring pairs_in_range
 * (tree/neighborlist.py): r2 <= cutoff*cutoff on the wrapped positions,
 * cutoff = max(radii[i], radii[j]). */
static inline int rp_in_range(const double *xw, const double *radii,
                              int64_t i, int64_t j, int dim,
                              const double *psel, const double *pdiv)
{
    double r2 = 0.0;
    for (int d = 0; d < dim; ++d) {
        const double t =
            rp_wrap(xw[i * dim + d] - xw[j * dim + d], psel[d], pdiv[d]);
        r2 += t * t;
    }
    const double cutoff = radii[j] > radii[i] ? radii[j] : radii[i];
    return r2 <= cutoff * cutoff;
}

/* Ascending in-place sort of one CSR row (Shell sort, Ciura gaps: rows
 * hold a few hundred entries). */
static void rp_sort_row(int64_t *a, int64_t n)
{
    static const int64_t gaps[8] = {701, 301, 132, 57, 23, 10, 4, 1};
    for (int g = 0; g < 8; ++g) {
        const int64_t gap = gaps[g];
        for (int64_t k = gap; k < n; ++k) {
            const int64_t v = a[k];
            int64_t m = k;
            for (; m >= gap && a[m - gap] > v; m -= gap)
                a[m] = a[m - gap];
            a[m] = v;
        }
    }
}

/* Canonical row order (ascending neighbour index) for a whole CSR list.
 * A search that feeds the h iteration skips this: the count sweeps are
 * order-blind and the cut that ends the build orders what survives. */
void rp_sort_rows(const int64_t *offsets, int64_t n, int64_t *indices)
{
    for (int64_t i = 0; i < n; ++i)
        rp_sort_row(indices + offsets[i], offsets[i + 1] - offsets[i]);
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

/* Inlined at call sites that pass dim as a literal, so the loops over
 * the axes unroll and the candidate loop vectorizes (half the walk). */
#if defined(__GNUC__)
#define RP_SPECIALIZE static inline __attribute__((always_inline))
#else
#define RP_SPECIALIZE static inline
#endif

/* The particles q of [q0, q1) in range of one target particle (position
 * xi, radius ri), q == skip excepted: rp_in_range on the Morton-ordered
 * copies, either mode.  With shift != NULL the minimum image of every
 * axis is the hoisted t - shift[d].  Returns how many; with row != NULL
 * also writes their indices there, never at or past row_end: the store
 * is guarded, not the hit, so the loop carries no data-dependent
 * branch. */
RP_SPECIALIZE int64_t rp_leaf_hits(const double *xs, const double *rs,
                                   int64_t n, const int dim,
                                   const double *xi, double ri,
                                   const double *shift, const double *psel,
                                   const double *pdiv, int symmetric,
                                   int64_t q0, int64_t q1, int64_t skip,
                                   const int64_t *order, int64_t *row,
                                   const int64_t *row_end)
{
    int64_t c = 0;
    for (int64_t q = q0; q < q1; ++q) {
        double r2 = 0.0;
        for (int d = 0; d < dim; ++d) {
            double t = xi[d] - xs[d * n + q];
            if (shift)
                t -= shift[d];
            else
                t = rp_wrap(t, psel[d], pdiv[d]);
            r2 += t * t;
        }
        double cutoff = ri;
        if (symmetric && rs[q] > cutoff)
            cutoff = rs[q];
        if (row && row + c < row_end)
            row[c] = order[q];
        c += (r2 <= cutoff * cutoff) & (q != skip);
    }
    return c;
}

/* Target leaf [t0, t1) against source leaf [s0, s1) with tight box
 * [slo, shi] and largest radius srmax (self: the two are one leaf and
 * include_self is off).  shift != NULL: the hoisted shifts of the leaf
 * pair.  Each target particle repeats the descent's prune point-to-box
 * against max(r_i, srmax) (gather: r_i) before it tests a candidate. */
RP_SPECIALIZE void rp_leaf_pair(const double *xs, const double *rs,
                                int64_t n, const int dim, int symmetric,
                                const double *psel, const double *pdiv,
                                const int64_t *order, int64_t t0,
                                int64_t t1, int64_t s0, int64_t s1,
                                const double *slo, const double *shi,
                                double srmax, const double *shift,
                                int self, const int64_t *offsets,
                                int64_t *cursor, int64_t *out)
{
    for (int64_t p = t0; p < t1; ++p) {
        const double ri = rs[p];
        double xi[3], e2 = 0.0;
        for (int d = 0; d < dim; ++d) {
            xi[d] = xs[d * n + p];
            double e;
            if (shift) {
                e = rp_gap((xi[d] - shi[d]) - shift[d],
                           (xi[d] - slo[d]) - shift[d]);
            } else {
                double unused_shift;
                int unused_flag;
                e = rp_axis_gap(xi[d] - shi[d], xi[d] - slo[d], psel[d],
                                pdiv[d], &unused_shift, &unused_flag);
            }
            e2 += e * e;
        }
        double reach = ri;
        if (symmetric && srmax > reach)
            reach = srmax;
        if (!(e2 <= reach * reach))
            continue;
        const int64_t i = order[p];
        cursor[i] += rp_leaf_hits(xs, rs, n, dim, xi, ri, shift, psel, pdiv,
                                  symmetric, s0, s1, self ? p : -1, order,
                                  out ? out + cursor[i] : 0,
                                  out ? out + offsets[i + 1] : 0);
    }
}

/* Neighbour discovery by tree walk, one descent per target leaf —
 * Octree.walk_neighbors in C.  xs/rs are the wrapped positions (dim, n)
 * and search radii in Morton order, lo/hi/rmax the rp_node_bounds of
 * exactly those.
 *
 * For a target leaf T the depth-first descent keeps a node k while the
 * box-to-box gap (rp_axis_gap per axis, squared and summed in axis
 * order) is within max(rmax[T], rmax[k]) (gather: rmax[T]) — a bound no
 * pair between the two can beat, see rp_axis_gap.  Each source leaf it
 * reaches is handled at once by rp_leaf_pair, with the shifts hoisted
 * for the leaf pair when every axis allows it; candidates that survive
 * the point-to-box prune pass the predicate of pairs_in_range, to the
 * bit.  So the accepted set is the set of the numpy walk; rows come out
 * in traversal order (rp_sort_rows makes them canonical).
 *
 * Call twice: with offsets and out NULL and cursor zeroed, cursor[i]
 * receives the row count; with the cumulated offsets and cursor[i] =
 * offsets[i], out receives the rows and cursor[i] ends on
 * offsets[i + 1].  No scratch is sized by a guess: the stack is bounded
 * above, and a row is written through its own cursor and never past its
 * own end. */
void rp_walk(const double *xs, const double *rs, int64_t n, int dim,
             int symmetric, const double *psel, const double *pdiv,
             int64_t n_nodes, const int64_t *child_start,
             const int64_t *child_count, const int64_t *pstart,
             const int64_t *pend, const int64_t *order, const double *lo,
             const double *hi, const double *rmax, int include_self,
             const int64_t *offsets, int64_t *cursor, int64_t *out)
{
    int64_t stack[RP_WALK_STACK];
    for (int64_t tl = 0; tl < n_nodes; ++tl) {
        if (child_count[tl])
            continue;
        const double *tlo = lo + tl * dim, *thi = hi + tl * dim;
        const int64_t t0 = pstart[tl], t1 = pend[tl];
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
            const double *sh = hoisted ? shift : 0;
            const int self = k == tl && !include_self;
#define RP_LEAF_PAIR(DIM)                                                  \
    rp_leaf_pair(xs, rs, n, DIM, symmetric, psel, pdiv, order, t0, t1,     \
                 pstart[k], pend[k], klo, khi, rmax[k], sh, self, offsets, \
                 cursor, out)
            if (dim == 3)
                RP_LEAF_PAIR(3);
            else if (dim == 2)
                RP_LEAF_PAIR(2);
            else
                RP_LEAF_PAIR(1);
#undef RP_LEAF_PAIR
        }
    }
}

/* The pairs of a CSR list that a symmetric search at radii would keep
 * (NeighborList.within), in one pass: rows are visited in index order,
 * so each kept row lands right behind the one before it — out needs room
 * for the whole input list, but only the part that is kept is ever
 * written — and is put in canonical order while still in cache.
 * new_offsets[0] must be 0. */
void rp_pairs_within(const double *xw, const double *radii,
                     const int64_t *offsets, const int64_t *indices,
                     int64_t n, int dim, const double *psel,
                     const double *pdiv, int64_t *new_offsets, int64_t *out)
{
    for (int64_t i = 0; i < n; ++i) {
        int64_t *row = out + new_offsets[i];
        int64_t c = 0;
        for (int64_t k = offsets[i]; k < offsets[i + 1]; ++k) {
            const int64_t j = indices[k];
            if (rp_in_range(xw, radii, i, j, dim, psel, pdiv))
                row[c++] = j;
        }
        rp_sort_row(row, c);
        new_offsets[i + 1] = new_offsets[i] + c;
    }
}

/* Far field of one accepted node on the particles of one target leaf:
 * evaluate_multipoles (gravity/multipole.py) in C — the contracted
 * M^(n).D^(n) and M^(n).D^(n+1), see that module for the algebra.  The
 * traces belong to the node and are taken once, outside the particle
 * loop.  rank is the highest moment used (0, 2, 3 or 4). */
static void rp_m2p(const double *x, const int64_t *order, int64_t p0,
                   int64_t p1, const double *c, double mass,
                   const double *m2, const double *m3, const double *m4,
                   int rank, double g_const, double *acc, double *phi)
{
    double tr2 = 0.0, tt4 = 0.0, t3[3] = {0.0, 0.0, 0.0}, t4[9];
    if (rank >= 2)
        tr2 = m2[0] + m2[4] + m2[8];
    if (rank >= 3)
        for (int b = 0; b < 3; ++b)
            t3[b] = m3[b] + m3[12 + b] + m3[24 + b];
    if (rank >= 4) {
        for (int b = 0; b < 9; ++b)
            t4[b] = m4[b] + m4[36 + b] + m4[72 + b];
        tt4 = t4[0] + t4[4] + t4[8];
    }
    for (int64_t p = p0; p < p1; ++p) {
        const int64_t i = order[p];
        const double d[3] = {x[3 * i] - c[0], x[3 * i + 1] - c[1],
                             x[3 * i + 2] - c[2]};
        const double u2 = 1.0 / (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]);
        const double g0 = sqrt(u2);
        const double g1 = -g0 * u2;
        double pot = mass * g0;
        double along = mass * g1; /* coefficient of d */
        double rest[3] = {0.0, 0.0, 0.0};
        if (rank >= 2) {
            const double g2 = -3.0 * g1 * u2, g3 = -5.0 * g2 * u2;
            double v2[3], q2 = 0.0;
            for (int e = 0; e < 3; ++e) {
                v2[e] = m2[e] * d[0] + m2[3 + e] * d[1] + m2[6 + e] * d[2];
                q2 += v2[e] * d[e];
                rest[e] = g2 * v2[e];
            }
            pot += 0.5 * (g2 * q2 + g1 * tr2);
            along += 0.5 * (g3 * q2 + g2 * tr2);
            if (rank >= 3) {
                const double g4 = -7.0 * g3 * u2;
                double a2[9], v3[3], q3 = 0.0, t3d = 0.0;
                for (int b = 0; b < 9; ++b)
                    a2[b] = m3[b] * d[0] + m3[9 + b] * d[1] + m3[18 + b] * d[2];
                for (int e = 0; e < 3; ++e) {
                    v3[e] = a2[e] * d[0] + a2[3 + e] * d[1] + a2[6 + e] * d[2];
                    q3 += v3[e] * d[e];
                    t3d += t3[e] * d[e];
                    rest[e] -= 0.5 * (g3 * v3[e] + g2 * t3[e]);
                }
                pot -= (g3 * q3 + 3.0 * g2 * t3d) / 6.0;
                along -= (g4 * q3 + 3.0 * g3 * t3d) / 6.0;
                if (rank >= 4) {
                    const double g5 = -9.0 * g4 * u2;
                    double a3[27], v4[3], w4[3], q4 = 0.0, t4dd = 0.0;
                    for (int b = 0; b < 27; ++b)
                        a3[b] = m4[b] * d[0] + m4[27 + b] * d[1]
                                + m4[54 + b] * d[2];
                    for (int b = 0; b < 9; ++b)
                        a2[b] = a3[b] * d[0] + a3[9 + b] * d[1]
                                + a3[18 + b] * d[2];
                    for (int e = 0; e < 3; ++e) {
                        v4[e] = a2[e] * d[0] + a2[3 + e] * d[1]
                                + a2[6 + e] * d[2];
                        w4[e] = t4[e] * d[0] + t4[3 + e] * d[1]
                                + t4[6 + e] * d[2];
                        q4 += v4[e] * d[e];
                        t4dd += w4[e] * d[e];
                        rest[e] += g4 * v4[e] / 6.0 + 0.5 * g3 * w4[e];
                    }
                    pot += (g4 * q4 + 6.0 * g3 * t4dd + 3.0 * g2 * tt4) / 24.0;
                    along += (g5 * q4 + 6.0 * g4 * t4dd + 3.0 * g3 * tt4)
                             / 24.0;
                }
            }
        }
        for (int e = 0; e < 3; ++e)
            acc[3 * i + e] += g_const * (along * d[e] + rest[e]);
        phi[i] -= g_const * pot;
    }
}

/* Barnes-Hut gravity, one target leaf at a time — barnes_hut_gravity
 * (gravity/barnes_hut.py) in C, 3-D.  For each leaf a depth-first walk
 * from the root applies the MAC to every source node it meets:
 *     size(source) <= theta * dist(leaf box, source COM),  dist > 0
 * with size = 2*max(half) and dist from sum_of_squares of the per-axis
 * excess, the numpy expressions term for term (this section never fuses
 * a multiply-add), so both renderings accept, open and P2P the same
 * nodes.  Accepted nodes go through rp_m2p; a source leaf that fails the
 * MAC is summed particle by particle with Plummer softening eps2, a
 * particle skipping itself.  Everything accumulates into acc/phi rows of
 * the leaf's own particles, so a leaf's result does not depend on which
 * other leaves are in the call.  counts[0] += P2P pairs (self pairs
 * included, as the reference counts them), counts[1] += M2P terms. */
void rp_gravity(const double *x, const double *m, const int64_t *leaves,
                int64_t n_leaves, const double *center, const double *half,
                const int64_t *child_start, const int64_t *child_count,
                const int64_t *pstart, const int64_t *pend,
                const int64_t *order, const double *mass, const double *com,
                const double *m2, const double *m3, const double *m4,
                int rank, double theta, double g_const, double eps2,
                double *acc, double *phi, int64_t *counts)
{
    int64_t stack[RP_WALK_STACK];
    for (int64_t l = 0; l < n_leaves; ++l) {
        const int64_t t = leaves[l];
        const int64_t t0 = pstart[t], t1 = pend[t];
        int top = 0;
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
                rp_m2p(x, order, t0, t1, com + 3 * s, mass[s],
                       m2 ? m2 + 9 * s : 0, m3 ? m3 + 27 * s : 0,
                       m4 ? m4 + 81 * s : 0, rank, g_const, acc, phi);
                counts[1] += t1 - t0;
                continue;
            }
            const int64_t nchild = child_count[s];
            for (int64_t ch = 0; ch < nchild; ++ch)
                stack[top++] = child_start[s] + ch;
            if (nchild)
                continue;
            for (int64_t p = t0; p < t1; ++p) {
                const int64_t i = order[p];
                double a[3] = {0.0, 0.0, 0.0}, pot = 0.0;
                for (int64_t q = pstart[s]; q < pend[s]; ++q) {
                    const int64_t j = order[q];
                    if (j == i)
                        continue;
                    const double dx = x[3 * i] - x[3 * j];
                    const double dy = x[3 * i + 1] - x[3 * j + 1];
                    const double dz = x[3 * i + 2] - x[3 * j + 2];
                    const double inv_r =
                        1.0 / sqrt(dx * dx + dy * dy + dz * dz + eps2);
                    const double gm = g_const * m[j];
                    const double f = gm * (inv_r * inv_r * inv_r);
                    a[0] += f * dx;
                    a[1] += f * dy;
                    a[2] += f * dz;
                    pot += gm * inv_r;
                }
                acc[3 * i] -= a[0];
                acc[3 * i + 1] -= a[1];
                acc[3 * i + 2] -= a[2];
                phi[i] -= pot;
            }
            counts[0] += (t1 - t0) * (pend[s] - pstart[s]);
        }
    }
}
"""

SOURCE = _HELPERS + _OPS


def source_fingerprint() -> str:
    """Hashable identity of the generated source (build-cache key)."""
    import hashlib

    return hashlib.sha256(SOURCE.encode()).hexdigest()[:16]
