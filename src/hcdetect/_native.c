/*
 * Compiled special-function kernels mirroring hcdetect._purekernels: the
 * AS 241 (PPND16) normal quantile (hc_ndtri) and the two-sided Gaussian
 * p-value map (hc_two_sided_p), which calls FreeBSD-msun erfc on [0, inf).
 * Algorithms and coefficients must stay in lockstep with the pure backend;
 * the test suite asserts agreement to a few ulp.
 *
 * Plain C with no Python API: every export has the shape
 *     void hc_<name>(const double *in, double *out, size_t n)
 * and is loaded with ctypes by hcdetect.backend, which releases the GIL
 * for the duration of the call. The helpers are plain static, not inline,
 * so that -Wall reports one left unused; -O3 inlines them all the same.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

static const double ERX = 8.45062911510467529297e-01;

static const double
    pp0 = 1.28379167095512558561e-01, pp1 = -3.25042107247001499370e-01,
    pp2 = -2.84817495755985104766e-02, pp3 = -5.77027029648944159157e-03,
    pp4 = -2.37630166566501626084e-05,
    qq1 = 3.97917223959155352819e-01, qq2 = 6.50222499887672944485e-02,
    qq3 = 5.08130628187576562776e-03, qq4 = 1.32494738004321644526e-04,
    qq5 = -3.96022827877536812320e-06;

static const double
    pa0 = -2.36211856075265944077e-03, pa1 = 4.14856118683748331666e-01,
    pa2 = -3.72207876035701323847e-01, pa3 = 3.18346619901161753674e-01,
    pa4 = -1.10894694282396677476e-01, pa5 = 3.54783043256182359371e-02,
    pa6 = -2.16637559486879084300e-03,
    qa1 = 1.06420880400844228286e-01, qa2 = 5.40397917702171048937e-01,
    qa3 = 7.18286544141962662868e-02, qa4 = 1.26171219808761642112e-01,
    qa5 = 1.36370839120290507362e-02, qa6 = 1.19844998467991074170e-02;

static const double
    ra0 = -9.86494403484714822705e-03, ra1 = -6.93858572707181764372e-01,
    ra2 = -1.05586262253232909814e01, ra3 = -6.23753324503260060396e01,
    ra4 = -1.62396669462573470355e02, ra5 = -1.84605092906711035994e02,
    ra6 = -8.12874355063065934246e01, ra7 = -9.81432934416914548592e00,
    sa1 = 1.96512716674392571292e01, sa2 = 1.37657754143519042600e02,
    sa3 = 4.34565877475229228821e02, sa4 = 6.45387271733267880336e02,
    sa5 = 4.29008140027567833386e02, sa6 = 1.08635005541779435134e02,
    sa7 = 6.57024977031928170135e00, sa8 = -6.04244152148580987438e-02;

static const double
    rb0 = -9.86494292470009928597e-03, rb1 = -7.99283237680523006574e-01,
    rb2 = -1.77579549177547519889e01, rb3 = -1.60636384855821916062e02,
    rb4 = -6.37566443368389627722e02, rb5 = -1.02509513161107724954e03,
    rb6 = -4.83519191608651397019e02,
    sb1 = 3.03380607434824582924e01, sb2 = 3.25792512996573918826e02,
    sb3 = 1.53672958608443695994e03, sb4 = 3.19985821950859553908e03,
    sb5 = 2.55305040643316442583e03, sb6 = 4.74528541206955367215e02,
    sb7 = -2.24409524465858183362e01;

/* AS 241 (PPND16): central (a/b), intermediate (c/d), far tail (e/f). */
static const double
    a0 = 3.3871328727963666080e0, a1 = 1.3314166789178437745e2,
    a2 = 1.9715909503065514427e3, a3 = 1.3731693765509461125e4,
    a4 = 4.5921953931549871457e4, a5 = 6.7265770927008700853e4,
    a6 = 3.3430575583588128105e4, a7 = 2.5090809287301226727e3,
    b1 = 4.2313330701600911252e1, b2 = 6.8718700749205790830e2,
    b3 = 5.3941960214247511077e3, b4 = 2.1213794301586595867e4,
    b5 = 3.9307895800092710610e4, b6 = 2.8729085735721942674e4,
    b7 = 5.2264952788528545610e3;
static const double
    c0 = 1.42343711074968357734e0, c1 = 4.63033784615654529590e0,
    c2 = 5.76949722146069140550e0, c3 = 3.64784832476320460504e0,
    c4 = 1.27045825245236838258e0, c5 = 2.41780725177450611770e-1,
    c6 = 2.27238449892691845833e-2, c7 = 7.74545014278341407640e-4,
    d1 = 2.05319162663775882187e0, d2 = 1.67638483018380384940e0,
    d3 = 6.89767334985100004550e-1, d4 = 1.48103976427480074590e-1,
    d5 = 1.51986665636164571966e-2, d6 = 5.47593808499534494600e-4,
    d7 = 1.05075007164441684324e-9;
static const double
    e0 = 6.65790464350110377720e0, e1 = 5.46378491116411436990e0,
    e2 = 1.78482653991729133580e0, e3 = 2.96560571828504891230e-1,
    e4 = 2.65321895265761230930e-2, e5 = 1.24266094738807843860e-3,
    e6 = 2.71155556874348757815e-5, e7 = 2.01033439929228813265e-7,
    f1 = 5.99832206555887937690e-1, f2 = 1.36929880922735805310e-1,
    f3 = 1.48753612908506148525e-2, f4 = 7.86869131145613259100e-4,
    f5 = 1.84631831751005468180e-5, f6 = 1.42151175831644588870e-7,
    f7 = 2.04426310338993978564e-15;

/* Two-sided p clamp bounds, as in _purekernels. */
static const double P_CEIL = 0.99999;
static const double P_FLOOR = 0x1p-54;
/* _purekernels' 1.0 / np.sqrt(2.0), 0x1.6a09e667f3bccp-1: one ulp below the
 * correctly rounded 1/sqrt(2), so both backends scale |z| to the same bits. */
static const double INV_SQRT2 = 0.7071067811865475;

/* SET_LOW_WORD(x, 0): drop the low 32 mantissa bits so that x*x is exact. */
static double zero_low_word(double x)
{
    uint64_t u;
    memcpy(&u, &x, sizeof u);
    u &= 0xFFFFFFFF00000000ULL;
    memcpy(&x, &u, sizeof u);
    return x;
}

/* erfc(x) for x >= 0; a NaN gives NaN. */
static double erfc1(double x)
{
    double z, r, s, y, P, Q, R, S;
    if (x != x)
        return NAN;
    if (x >= 28.0)
        return 0.0;
    if (x < 1.3877787807814457e-17) /* 2**-56 */
        return 1.0 - x;
    if (x < 0.84375) {
        z = x * x;
        r = pp0 + z * (pp1 + z * (pp2 + z * (pp3 + z * pp4)));
        s = 1.0 + z * (qq1 + z * (qq2 + z * (qq3 + z * (qq4 + z * qq5))));
        y = r / s;
        if (x < 0.25)
            return 1.0 - (x + x * y);
        r = x * y;
        r += x - 0.5;
        return 0.5 - r;
    }
    if (x < 1.25) {
        s = x - 1.0;
        P = pa0 + s * (pa1 + s * (pa2 + s * (pa3 + s * (pa4 + s * (pa5 + s * pa6)))));
        Q = 1.0 + s * (qa1 + s * (qa2 + s * (qa3 + s * (qa4 + s * (qa5 + s * qa6)))));
        return 1.0 - ERX - P / Q;
    }
    s = 1.0 / (x * x);
    if (x < 2.857142857142857) { /* 1/0.35 */
        R = ra0 + s * (ra1 + s * (ra2 + s * (ra3 + s * (ra4 + s * (ra5 + s * (ra6 + s * ra7))))));
        S = 1.0 + s * (sa1 + s * (sa2 + s * (sa3 + s * (sa4 + s * (sa5 + s * (sa6 + s * (sa7 + s * sa8)))))));
    } else {
        R = rb0 + s * (rb1 + s * (rb2 + s * (rb3 + s * (rb4 + s * (rb5 + s * rb6)))));
        S = 1.0 + s * (sb1 + s * (sb2 + s * (sb3 + s * (sb4 + s * (sb5 + s * (sb6 + s * sb7))))));
    }
    z = zero_low_word(x);
    return exp(-z * z - 0.5625) * exp((z - x) * (z + x) + R / S) / x;
}

static double ndtri1(double p)
{
    double q, r, num, den, val;
    if (p != p)
        return NAN;
    q = p - 0.5;
    if (fabs(q) <= 0.425) {
        r = 0.180625 - q * q;
        num = a0 + r * (a1 + r * (a2 + r * (a3 + r * (a4 + r * (a5 + r * (a6 + r * a7))))));
        den = 1.0 + r * (b1 + r * (b2 + r * (b3 + r * (b4 + r * (b5 + r * (b6 + r * b7))))));
        return q * num / den;
    }
    r = q < 0.0 ? p : 1.0 - p;
    if (r <= 0.0)
        return p <= 0.0 ? -INFINITY : INFINITY;
    r = sqrt(-log(r));
    if (r <= 5.0) {
        r -= 1.6;
        num = c0 + r * (c1 + r * (c2 + r * (c3 + r * (c4 + r * (c5 + r * (c6 + r * c7))))));
        den = 1.0 + r * (d1 + r * (d2 + r * (d3 + r * (d4 + r * (d5 + r * (d6 + r * d7))))));
    } else {
        r -= 5.0;
        num = e0 + r * (e1 + r * (e2 + r * (e3 + r * (e4 + r * (e5 + r * (e6 + r * e7))))));
        den = 1.0 + r * (f1 + r * (f2 + r * (f3 + r * (f4 + r * (f5 + r * (f6 + r * f7))))));
    }
    val = num / den;
    return q < 0.0 ? -val : val;
}

void hc_ndtri(const double *in, double *out, size_t n)
{
    for (size_t i = 0; i < n; i++)
        out[i] = ndtri1(in[i]);
}

/* P(|N(0,1)| > |z|) clamped to [P_FLOOR, P_CEIL]; an exact 1 maps to the
 * ceiling. */
void hc_two_sided_p(const double *in, double *out, size_t n)
{
    for (size_t i = 0; i < n; i++) {
        double p = erfc1(fabs(in[i]) * INV_SQRT2);
        if (p >= 1.0)
            p = P_CEIL;
        else if (p < P_FLOOR)
            p = P_FLOOR;
        out[i] = p;
    }
}
