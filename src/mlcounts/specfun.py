"""Special functions: the regularized incomplete gamma function, erfc and friends.

The exact engine reduces to the regularized incomplete gamma functions
P(a, z) = gamma(a, z)/Gamma(a) and Q = 1 - P at shapes a and arguments z.
``log_reg_gamma_pq`` evaluates log P and log Q on whole arrays, z broadcast
against a (one call covers every column of a profile), with numpy alone.
With lambda = z/a and eta the signed root of eta^2/2 = lambda - 1 -
log(lambda), each shape takes one branch:

* uniform, a >= A_UNIFORM and |eta| <= ETA_UNIFORM: Temme's uniform expansion
  Q = erfc(eta sqrt(a/2))/2 + e^(-a eta^2/2)/sqrt(2 pi a) sum_k c_k(eta) a^-k
  (Temme 1979; DiDonato & Morris 1986; Gil, Segura & Temme 2012), with the
  c_k summed from their Taylor tables about eta = 0 and cut to the terms
  the column needs.  Its tail side is taken in log form;
* series, elsewhere with z < a + 1: log P from Kummer's series
  P = z^a e^-z / Gamma(a+1) sum_k z^k / ((a+1)...(a+k)), and for a < 1,
  where Q ~ a E1(z) is small, log Q from the small-shape series
  Q = 1 - z^a/Gamma(1+a) (1 + a sum_n (-z)^n / (n! (a+n)));
* continued fraction, elsewhere: log Q from the Legendre continued fraction;
* saturated, a >= A_SATURATED off the uniform branch: P = 0 or 1 exactly.

Where a branch gives one log, the other is log(1 - e^x) of it.  Every
branch keeps P and Q within 1e-13 absolute (the frozen 50-digit grid), and
its tail side keeps its relative accuracy far below double range.  The
uniform branch covers every shape of a saturation window from a = 20 up;
the series and the continued fraction run on the few rows with small a or
far from lambda = 1.

Also: ``erfc`` and ``erfcx`` (W. J. Cody's rational approximations, Math.
Comp. 23, 1969), ``reg_lower_gamma`` (one scalar P), ``gamma_regime`` (the
branch that (a, z) takes), ``log_prefactor``, ``unit_rule`` (the panelled
Gauss-Legendre rule that both the window integrals and the coefficient
quadrature use) and log Barnes G.  All pure, thread-safe.
"""

from __future__ import annotations

import enum
import functools
import math

import numpy as np

__all__ = [
    "A_UNIFORM",
    "ETA_UNIFORM",
    "SATURATED_LOG_PREFACTOR",
    "GammaRegime",
    "erfc",
    "erfcx",
    "gamma_regime",
    "log_barnes_g",
    "log_prefactor",
    "log_reg_gamma_pq",
    "reg_lower_gamma",
    "unit_rule",
]

# The uniform branch: a >= A_UNIFORM, |eta| <= ETA_UNIFORM.  At A_UNIFORM the
# first omitted term c_13 a^-13 is below 1e-18, and the Taylor series of c_k
# (radius 2 sqrt(pi) in eta) converge geometrically out to ETA_UNIFORM.
# Changing either means regenerating _TEMME_TAYLOR.
A_UNIFORM = 20.0
ETA_UNIFORM = 1.0
A_SATURATED = 1e300  # off |eta| <= 1, min(P, Q) < e^(-a/2); lgamma overflows from ~2.5e305

# A prefactor z^a e^-z / Gamma(a) below exp(this) keeps P within ~1e-24 of
# 0 or 1, far below the 1e-13 absolute budget: such (a, z) are saturated.
SATURATED_LOG_PREFACTOR = -60.0

# 1/(2k+3), k = 0..17: the atanh series of x - log(1+x) in t^2 = (x/(2+x))^2
# <= 1/9, truncated below 1e-17 relative.
_LOG1P_MINUS_SERIES = 1.0 / (2.0 * np.arange(18) + 3.0)

# d_k, k = 1..27: 1/Gamma(1+a) - 1 = sum_k d_k a^k, cut after the last
# |d_k| >= 1e-18 (a <= 1).  60 digits, scripts/derive_frozen_constants.py.
_RGAMMA1P_TAYLOR = np.array((
    0.5772156649015329, -0.6558780715202539, -0.04200263503409524,
    0.16653861138229148, -0.04219773455554433, -0.009621971527876973,
    0.0072189432466631, -0.0011651675918590652, -0.00021524167411495098,
    0.0001280502823881162, -2.013485478078824e-05, -1.2504934821426706e-06,
    1.133027231981696e-06, -2.056338416977607e-07, 6.116095104481416e-09,
    5.002007644469223e-09, -1.18127457048702e-09, 1.0434267116911005e-10,
    7.782263439905071e-12, -3.696805618642206e-12, 5.100370287454476e-13,
    -2.0583260535665066e-14, -5.348122539423018e-15, 1.2267786282382608e-15,
    -1.1812593016974588e-16, 1.1866922547516004e-18, 1.4123806553180319e-18,
))

# B_2k / (2k (2k-1)), k = 1..8: the Stirling remainder
# mu(a) = lgamma(a) - (a - 1/2) log a + a - log(2 pi)/2 ~ sum_k c_k a^(1-2k),
# whose first omitted term is below 1e-18 from a = _STIRLING_MIN_A on.
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0,
             -691.0 / 360360.0, 1.0 / 156.0, -3617.0 / 122400.0)
_STIRLING_MIN_A = 10.0
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

# zeta'(-1); 30 digits, mpmath dps=60 (scripts/derive_frozen_constants.py).
ZETA_PRIME_MINUS_ONE = -0.165421143700450929213919066243

# Row k: Taylor coefficients about eta = 0 of c_k(eta), from
# c_0 = 1/(lambda-1) - 1/eta and c_k = c_(k-1)'/eta + (-1)^k g_k/(lambda-1)
# (g_k Stirling's coefficients); each row is cut after its last term
# |c_km| ETA_UNIFORM^m A_UNIFORM^-k >= 1e-18.  Generated at 60 digits by
# scripts/derive_frozen_constants.py.
_TEMME_TAYLOR = (
    (
        -0.3333333333333333, 0.08333333333333333, -0.014814814814814815,
        0.0011574074074074073, 0.0003527336860670194, -0.0001787551440329218,
        3.919263178522438e-05, -2.185448510679992e-06, -1.85406221071516e-06,
        8.296711340953087e-07, -1.7665952736826078e-07, 6.707853543401498e-09,
        1.0261809784240309e-08, -4.382036018453353e-09, 9.14769958223679e-10,
        -2.5514193994946248e-11, -5.830772132550426e-11, 2.4361948020667415e-11,
        -5.0276692801141755e-12, 1.1004392031956135e-13, 3.371763262400985e-13,
        -1.392388722418162e-13, 2.8534893807047445e-14, -5.139111834242572e-16,
        -1.9752288294349442e-15, 8.099521156704561e-16, -1.6522531216398162e-16,
        2.5305430097478883e-18, 1.1686939738559576e-17, -4.770037049820485e-18,
    ),
    (
        -0.001851851851851852, -0.003472222222222222, 0.0026455026455026454,
        -0.0009902263374485596, 0.00020576131687242798, -4.018775720164609e-07,
        -1.8098550334489977e-05, 7.64916091608111e-06, -1.6120900894563446e-06,
        4.647127802807434e-09, 1.378633446915721e-07, -5.752545603517705e-08,
        1.1951628599778148e-08, -1.7543241719747647e-11, -1.0091543710600413e-09,
        4.162792991842583e-10, -8.56390702649298e-11, 6.067215101604758e-14,
        7.1624989648114856e-12, -2.933186643771437e-12, 5.996696365683689e-13,
        -2.1671786527323313e-16, -4.978339972369262e-14, 2.0291628823713425e-14,
        -4.13125571381061e-15, 8.286516239883097e-19, 3.4100308869333327e-16,
        -1.3854195302893971e-16, 2.812346653228875e-17,
    ),
    (
        0.004133597883597883, -0.0026813271604938273, 0.0007716049382716049,
        2.0093878600823047e-06, -0.0001073665322636516, 5.2923448829120125e-05,
        -1.2760635188618728e-05, 3.423578734096138e-08, 1.3721957309062934e-06,
        -6.298992138380055e-07, 1.4280614206064242e-07, -2.0477098421990866e-10,
        -1.409252991086752e-08, 6.228974084922022e-09, -1.3670488396617114e-09,
        9.428356159014678e-13, 1.2872252400089318e-10, -5.5645956134363323e-11,
        1.197593554636698e-11, -4.1689782251838634e-15, -1.0940640427884595e-12,
        4.662239946390136e-13, -9.905105763906907e-14, 1.8931876768373515e-17,
        8.859221872591127e-15, -3.737820398046405e-15, 7.868833639035156e-16,
    ),
    (
        0.0006494341563786008, 0.00022947209362139917, -0.0004691894943952557,
        0.00026772063206283885, -7.561801671883977e-05, -2.396505113867297e-07,
        1.1082654115347302e-05, -5.6749528269915965e-06, 1.4230900732435883e-06,
        -2.7861080291528143e-11, -1.6958404091930278e-07, 8.099464905388083e-08,
        -1.9111168485973655e-08, 2.3928620439808118e-12, 2.0620131815488797e-09,
        -9.460496661855133e-10, 2.1541049775774907e-10, -1.388823336813903e-14,
        -2.1894761681963938e-11, 9.790998951171684e-12, -2.178219188018096e-12,
        6.208819573407901e-17, 2.126978363279737e-13, -9.344688791517433e-14,
        2.045367122678285e-14,
    ),
    (
        -0.0008618882909167117, 0.0007840392217200666, -0.0002990724803031902,
        -1.4638452578843418e-06, 6.641498215465122e-05, -3.968365047179435e-05,
        1.1375726970678419e-05, 2.507497226237533e-10, -1.6954149536558305e-06,
        8.907507532205309e-07, -2.292934834000805e-07, 2.956794137544049e-11,
        2.8865829742708783e-08, -1.4189739437803219e-08, 3.4463580499464896e-09,
        -2.3024517174528067e-13, -3.9409233028046403e-10, 1.86023389685045e-10,
        -4.356323005056618e-11, 1.278600101629623e-15, 4.67927502665792e-12,
        -2.149246470613483e-12, 4.908815614809652e-13,
    ),
    (
        -0.00033679855336635813, -6.972813758365857e-05, 0.0002772753244959392,
        -0.00019932570516188847, 6.797780477937208e-05, 1.419062920643967e-07,
        -1.3594048189768693e-05, 8.018470256334202e-06, -2.291481176508095e-06,
        -3.252473551298454e-10, 3.4652846491085265e-07, -1.8447187191171344e-07,
        4.8240967037894184e-08, -1.7989466721743514e-14, -6.306194500013523e-09,
        3.162417628774568e-09, -7.840924253697429e-10, 5.192679165254041e-15,
        9.358944242306784e-11, -4.513426216163278e-11, 1.0799129993116828e-11,
    ),
    (
        0.0005313079364639922, -0.0005921664373536939, 0.0002708782096718045,
        7.902353232660328e-07, -8.153969367561969e-05, 5.61168275310625e-05,
        -1.8329116582843375e-05, -3.0796134506033047e-09, 3.465155368803609e-06,
        -2.0291327396058603e-06, 5.788792863149004e-07, 2.338630673826657e-13,
        -8.828600746330484e-08, 4.7435958880408125e-08, -1.2545415020710383e-08,
        8.649648858010293e-14, 1.6846058979264062e-09, -8.575492823577594e-10,
        2.1598224929232125e-10,
    ),
    (
        0.00034436760689237765, 5.171790908260592e-05, -0.00033493161081142234,
        0.0002812695154763237, -0.00010976582244684731, -1.2741009095484485e-07,
        2.7744451511563645e-05, -1.8263488805711332e-05, 5.7876949497350525e-06,
        4.93875893393627e-10, -1.0595367014026043e-06, 6.166714376110408e-07,
        -1.7562973359060463e-07, -1.297447328701544e-12, 2.695423606288966e-08,
        -1.4578352908731272e-08, 3.887645959386175e-09,
    ),
    (
        -0.0006526239185953094, 0.0008394987206720873, -0.000438297098541721,
        -6.969091458420552e-07, 0.00016644846642067547, -0.00012783517679769218,
        4.629953263691304e-05, 4.557909867922708e-09, -1.0595271125805195e-05,
        6.783342904865167e-06, -2.1075476666258803e-06, -1.7213731432817144e-11,
        3.773587741611098e-07, -2.1867506700122867e-07, 6.220228804018927e-08,
    ),
    (
        -0.0005967612901927463, -7.204895416020011e-05, 0.0006782308837667328,
        -0.0006401475260262758, 0.00027750107634328704, 1.819700838046515e-07,
        -8.479507117068503e-05, 6.105192082501531e-05, -2.1073920183404862e-05,
        -8.858589014125599e-10, 4.5284535953805374e-06, -2.8427815022504407e-06,
        8.708234177864641e-07,
    ),
    (
        0.0013324454494800656, -0.0019144384985654776, 0.0011089369134596636,
        9.9324041226423e-07, -0.0005087450129309319, 0.00042735056665392886,
        -0.00016858853767910798, -8.1301893922785e-09, 4.5284402370562144e-05,
        -3.127053674781734e-05, 1.044986828530338e-05,
    ),
    (
        0.001579727660730835, 0.00016251626278391583, -0.0020633421035543276,
        0.00213896861856891, -0.0010108559391263003, -3.99127055299192e-07,
        0.0003623502508476469, -0.00028143901463712157,
    ),
    (
        -0.004072512119514016, 0.00640336283380807,
    ),
)

_TEMME = np.zeros((len(_TEMME_TAYLOR[0]), len(_TEMME_TAYLOR)))  # (m, k), zero-padded
for _k, _row in enumerate(_TEMME_TAYLOR):
    _TEMME[: len(_row), _k] = _row
_TEMME_ABS = np.abs(_TEMME)
_TEMME_TOL = 1e-18  # the cut of the table, applied again per column

# W. J. Cody's rational approximations (Math. Comp. 23, 1969; CALERF),
# coefficients in ascending powers, (numerator, denominator):
# erf(x) = x R(x^2) for x <= 0.46875, erfcx(x) = R(x) for x <= 4, and
# erfcx(x) = (1/sqrt(pi) - R(1/x^2)/x^2)/x beyond.
_CODY_SMALL = np.array((
    (3.20937758913846947e03, 3.77485237685302021e02, 1.13864154151050156e02,
     3.16112374387056560e00, 1.85777706184603153e-1),
    (2.84423683343917062e03, 1.28261652607737228e03, 2.44024637934444173e02,
     2.36012909523441209e01, 1.0),
))
_CODY_MID = np.array((
    (1.23033935479799725e03, 2.05107837782607147e03, 1.71204761263407058e03,
     8.81952221241769090e02, 2.98635138197400131e02, 6.61191906371416295e01,
     8.88314979438837594e00, 5.64188496988670089e-1, 2.15311535474403846e-8),
    (1.23033935480374942e03, 3.43936767414372164e03, 4.36261909014324716e03,
     3.29079923573345963e03, 1.62138957456669019e03, 5.37181101862009858e02,
     1.17693950891312499e02, 1.57449261107098347e01, 1.0),
))
_CODY_LARGE = np.array((
    (6.58749161529837803e-4, 1.60837851487422766e-2, 1.25781726111229246e-1,
     3.60344899949804439e-1, 3.05326634961232344e-1, 1.63153871373020978e-2),
    (2.33520497626869185e-3, 6.05183413124413191e-2, 5.27905102951428412e-1,
     1.87295284992346725e00, 2.56852019228982242e00, 1.0),
))
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


class GammaRegime(enum.Enum):
    """The branch of ``log_reg_gamma_pq`` that (a, z) takes; exactly one per
    (a, z).  FIXED_A_LARGE_Z marks the continued-fraction shapes whose P is
    saturated at 1 (prefactor below e^SATURATED_LOG_PREFACTOR)."""

    SERIES_SMALL_Z = "series_small_z"
    CONTINUED_FRACTION = "continued_fraction"
    TEMME_UNIFORM = "temme_uniform"
    FIXED_A_LARGE_Z = "fixed_a_large_z"


def _powers(x: np.ndarray, count: int) -> np.ndarray:
    """x^1, ..., x^count as the rows of a (count, len(x)) array (a row at a
    time: numpy's cumprod along the first axis is ~10x slower)."""
    out = np.empty((count, x.size))
    if count:
        out[0] = x
    for i in range(1, count):
        np.multiply(out[i - 1], x, out=out[i])
    return out


def _rational(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """num(x)/den(x) for x >= 0, the rows of `table` holding their coefficients
    in ascending powers.  Every coefficient is positive, so the power sums do
    not cancel, and they take fewer array passes than Horner's rule."""
    sums = table[:, :1] + table[:, 1:] @ _powers(x, table.shape[1] - 1)
    return sums[0] / sums[1]


# Decorator for the array helpers below: they evaluate closed forms on every
# entry before replacing some, and the replaced ones may overflow harmlessly.
_QUIET = np.errstate(over="ignore", divide="ignore", invalid="ignore")


def _cody(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For x >= 0: erfc(x) where x <= 0.46875 (the mask returned) and
    erfcx(x) elsewhere, each from its own rational approximation (Cody)."""
    out = np.empty_like(x)
    small, large = x <= 0.46875, x > 4.0
    mid = ~(small | large)
    if small.any():
        xs = x[small]
        out[small] = 1.0 - xs * _rational(_CODY_SMALL, xs * xs)
    if mid.any():
        out[mid] = _rational(_CODY_MID, x[mid])
    if large.any():
        xl = x[large]
        inv2 = np.square(1.0 / xl)  # (1/x)^2: x^2 would overflow past 1e154
        out[large] = (_INV_SQRT_PI - inv2 * _rational(_CODY_LARGE, inv2)) / xl
    return out, small


def erfcx(x) -> np.ndarray:
    """The scaled complementary error function e^(x^2) erfc(x), elementwise
    for x >= 0, to a few ulp (Cody)."""
    x = np.asarray(x, dtype=float)
    out, small = _cody(x)
    out[small] *= np.exp(np.square(x[small]))
    return out


def erfc(x) -> np.ndarray:
    """The complementary error function, elementwise for real x, to a few ulp."""
    x = np.asarray(x, dtype=float)
    ax = np.minimum(np.abs(x), 30.0)  # erfc(27.3) already underflows to 0
    out, small = _cody(ax)
    # e^(-x^2) = e^(-h^2) e^(-(x-h)(x+h)) with h = x rounded down to a 16th:
    # h^2 is exact, so the rounding of x^2 costs nothing at large x
    h = np.floor(16.0 * ax) / 16.0
    out = np.where(small, out, np.exp(-h * h) * np.exp((h - ax) * (ax + h)) * out)
    return np.where(x < 0.0, 2.0 - out, out)


def _log1p_minus(x: np.ndarray) -> np.ndarray:
    """x - log(1+x) for x > -1, accurate through the cancellation region."""
    out = x - np.log1p(x)
    small = np.abs(x) < 0.5
    # with t = x/(2+x): x - log(1+x) = x t - 2 t^3 sum_{k>=0} t^(2k)/(2k+3), |t| <= 1/3
    xs = x[small]
    t = xs / (2.0 + xs)
    t2 = t * t
    series = _LOG1P_MINUS_SERIES[0] + _LOG1P_MINUS_SERIES[1:] @ _powers(t2, 17)
    out[small] = xs * t - 2.0 * t * t2 * series
    return out


@_QUIET
def _eta(x: np.ndarray) -> np.ndarray:
    """eta with eta^2/2 = x - log(1+x), sign(eta) = sign(x), for x = lambda - 1;
    _log1p_minus keeps full relative accuracy as x -> 0."""
    return np.copysign(np.sqrt(2.0 * _log1p_minus(x)), x)


@_QUIET
def _log1mexp(x: np.ndarray) -> np.ndarray:
    """log(1 - e^x) for x <= 0, accurate at both ends (Maechler 2012)."""
    return np.where(x > -math.log(2.0), np.log(-np.expm1(x)), np.log1p(-np.exp(x)))


def _lgamma(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.lgamma, x.tolist()), float, x.size)


def _stirling_remainder(a: float) -> float:
    """mu(a) = lgamma(a) - ((a - 1/2) log a - a + log(2 pi)/2) for a >= 1: the
    Stirling series past _STIRLING_MIN_A, the difference below it (where
    every term is below 20, so it costs a few ulp of 20)."""
    if a < _STIRLING_MIN_A:
        return math.lgamma(a) - ((a - 0.5) * math.log(a) - a + _HALF_LOG_2PI)
    r = 1.0 / (a * a)
    c1, c2, c3, c4, c5, c6, c7, c8 = _STIRLING
    return (c1 + r * (c2 + r * (c3 + r * (c4 + r * (c5 + r * (c6 + r * (c7 + r * c8))))))) / a


def log_prefactor(a: float, z: float) -> float:
    """log(z^a e^-z / Gamma(a)) for a > 0, z > 0: P(a, z) and Q(a, z) differ
    from {0, 1} by at most a modest multiple of this prefactor.

    For a >= 1 it is taken in scaled form (DiDonato & Morris's rcomp, ACM
    TOMS 12, 1986): -a (lambda - 1 - log lambda) + log(a / 2 pi)/2 - mu(a)
    with lambda = z/a and mu the Stirling remainder, and lambda - 1 as
    x = (z - a)/a where lambda > 1/2 (z - a exact up to lambda = 2).  x - log1p(x) is
    off by a few eps |x|, so the error is a few eps (|z - a| + a |log lambda|
    + |log a| + 1): a small multiple of the value's conditioning.  (The
    array ``_log1p_minus`` would add ~10 us of numpy overhead to each of the
    ~50 scalar calls of a window search.)  a log z - z - lgamma(a) cancels
    instead, to ~eps (a |log z| + z): 4.5 absolute at a ~ z ~ 4e15."""
    if a < 1.0:
        return a * math.log(z) - z - math.lgamma(a)
    lam = z / a
    if lam > 0.5:
        x = (z - a) / a
        d = x - math.log1p(x)
    else:  # nothing cancels; z/a may underflow
        d = lam - 1.0 - (math.log(lam) if lam > 0.0 else math.log(z) - math.log(a))
    return -a * d + 0.5 * math.log(a) - _HALF_LOG_2PI - _stirling_remainder(a)


def _temme_table(eta_max: float, a_min: float) -> np.ndarray:
    """(k, m) Taylor table of the c_k cut to the terms that rows with
    |eta| <= eta_max and a >= a_min need: |c_km| eta_max^m a_min^-k >= _TEMME_TOL."""
    m, k = np.indices(_TEMME.shape)
    keep = _TEMME_ABS * eta_max**m / a_min**k >= _TEMME_TOL
    rows, cols = np.nonzero(keep)
    return _TEMME[: rows.max() + 1, : cols.max() + 1].T


def _temme_sum(a: np.ndarray, eta: np.ndarray, table: np.ndarray) -> np.ndarray:
    """sum_k c_k(eta) a^-k from `table` (``_temme_table``)."""
    terms, degree = table.shape[0] - 1, table.shape[1] - 1
    c = table[:, :1] + table[:, 1:] @ _powers(eta, degree)  # c_k(eta_i), (k, i)
    return c[0] + np.einsum("ki,ki->i", c[1:], _powers(1.0 / a, terms))


# Entries per pass of eta and of the uniform branch.  Their temporaries (the
# powers of t^2, eta and 1/a, the c_k, Cody's rationals) peak at ~180 bytes
# an entry, ~0.27 MB a block, against the ~26 bytes an entry that a call
# keeps (eta, its masks, log P and log Q).  A block's ~100 numpy calls cost
# ~80 us.  A round of the exact-mgf benchmark (calls of ~10^2 to ~3 10^3
# entries) takes 24.9 ms at 1536, 24.7 ms at 2048, 26.9 ms at 1024 and
# 24.5 ms unblocked, and its worker's first-round peak RSS reads 37.75,
# 37.84, 37.57 and ~37.97 MB.  A repeated call of 43,806 entries takes
# 4.6 ms in blocks and 3.2 ms whole, whose 7 MB of temporaries are fresh
# pages on a process's first such call (2-vCPU Xeon, numpy 2.4).
_BLOCK = 1536


def _blocks(size: int):
    return (slice(start, start + _BLOCK) for start in range(0, size, _BLOCK))


@_QUIET
def _uniform_log_pq(a: np.ndarray, eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log P, log Q from the uniform expansion.  With t = eta sqrt(a/2) and
    corr = sum_k c_k a^-k / sqrt(2 pi a), Q = e^(-t^2) (erfcx(t)/2 + corr) and
    P = e^(-t^2) (erfcx(-t)/2 - corr); the one on the tail side of t is taken
    in that log form, the other as log(1 - e^x) of the first.  Evaluated a
    block of entries at a time, every block with the Temme table that the
    whole call needs, so an entry's value does not depend on its block."""
    table = _temme_table(max(-eta.min(initial=0.0), eta.max(initial=0.0)), a.min(initial=np.inf))
    log_p, log_q = np.empty_like(a), np.empty_like(a)
    for blk in _blocks(a.size):
        ab, eb = a[blk], eta[blk]
        t = eb * np.sqrt(0.5 * ab)
        upper = t >= 0.0
        corr = _temme_sum(ab, eb, table) / np.sqrt(2.0 * math.pi * ab)
        log_tail = -t * t + np.log(0.5 * erfcx(np.abs(t)) + np.where(upper, corr, -corr))
        log_bulk = _log1mexp(log_tail)
        log_p[blk] = np.where(upper, log_bulk, log_tail)
        log_q[blk] = np.where(upper, log_tail, log_bulk)
    return log_p, log_q


_SERIES_BLOCK = 32  # terms of Kummer's series summed per array pass


def _log_p_series(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """log P(a, z) for z < a + 1 from Kummer's series,
    P = z^a e^-z / Gamma(a+1) sum_k z^k / ((a+1)...(a+k)): every term is below
    the one before, so blocks of terms are products of ratios z/(a+k) < 1."""
    total = np.ones_like(a)
    last = np.ones_like(a)
    k = 1
    while True:
        ratios = z[:, None] / (a[:, None] + np.arange(k, k + _SERIES_BLOCK))
        terms = last[:, None] * np.cumprod(ratios, axis=1)
        total += terms.sum(axis=1)
        last = terms[:, -1]
        k += _SERIES_BLOCK
        if np.all(last <= 1e-17 * total):
            return a * np.log(z) - z - _lgamma(a + 1.0) + np.log(total)


_SMALL_SHAPE_TERMS = 25  # of the series in z below: z < 2, and 2^25/25! < 1e-17


def _log_q_small_shape(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """log Q(a, z) for a < 1 and z < a + 1, without the cancellation of 1 - P
    as a -> 0, where Q ~ a E1(z) (DiDonato & Morris 1986).  With
    g = 1/Gamma(1+a) - 1 and S = sum_{n>=1} (-z)^n / (n! (a+n)),
    P = z^a (1+g) (1 + a S), so Q = -expm1(a log z) - g z^a - a z^a (1+g) S."""
    n = np.arange(1.0, _SMALL_SHAPE_TERMS + 1.0)
    s = np.einsum("in,in->i", 1.0 / (a[:, None] + n), np.cumprod(-z[:, None] / n, axis=1))
    g = _RGAMMA1P_TAYLOR @ _powers(a, _RGAMMA1P_TAYLOR.size)
    a_log_z = a * np.log(z)
    z_a = np.exp(a_log_z)
    return np.log(-np.expm1(a_log_z) - g * z_a - a * z_a * (1.0 + g) * s)


# The continued fraction stops once every row's Lentz factor c d is within
# one ulp of 1: a tolerance below half an ulp (2^-53) would pass only rows
# that reach exactly 1.0 and run the loop to its cap.
_CONTFRAC_TOL = 2.0**-52


def _log_q_contfrac(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """log Q(a, z) for z >= a + 1: the Legendre continued fraction
    Q = z^a e^-z / Gamma(a) / (z+1-a - 1(1-a)/(z+3-a - 2(2-a)/(z+5-a - ...))),
    by modified Lentz."""
    b = z + 1.0 - a
    c = np.full_like(a, np.inf)
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b = b + 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        h = h * c * d
        if np.all(np.abs(c * d - 1.0) <= _CONTFRAC_TOL):
            break
    return a * np.log(z) - z - _lgamma(a) + np.log(h)


@_QUIET
def _branches(a: np.ndarray, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """eta of each shape and the masks of the uniform and the series branch;
    the remaining shapes take the continued fraction.  At a subnormal shape
    lambda - 1 overflows to inf and eta is NaN: that shape is not uniform."""
    eta = np.empty_like(a)
    for blk in _blocks(a.size):
        ab = a[blk]
        # lambda - 1 as (z - a)/a: exact to an ulp or two relative where z ~ a,
        # while z/a - 1 would carry z/a's rounding as an absolute error
        eta[blk] = _eta(((z[blk] if np.ndim(z) else z) - ab) / ab)
    uniform = (a >= A_UNIFORM) & (np.abs(eta) <= ETA_UNIFORM)
    return eta, uniform, ~uniform & (z < a + 1.0)


def gamma_regime(a: float, z: float) -> GammaRegime:
    """The branch of ``log_reg_gamma_pq`` that (a, z) takes."""
    if not a > 0:
        raise ValueError(f"gamma_regime requires a > 0, got {a!r}")
    if not z >= 0:
        raise ValueError(f"gamma_regime requires z >= 0, got {z!r}")
    _, uniform, series = _branches(np.array([a], dtype=float), z)
    if uniform[0]:
        return GammaRegime.TEMME_UNIFORM
    if series[0]:
        return GammaRegime.SERIES_SMALL_Z
    if log_prefactor(a, z) < SATURATED_LOG_PREFACTOR:
        return GammaRegime.FIXED_A_LARGE_Z
    return GammaRegime.CONTINUED_FRACTION


def log_reg_gamma_pq(a, z) -> tuple[np.ndarray, np.ndarray]:
    """log P(a_i, z_i) and log Q(a_i, z_i), Q = 1 - P, for shapes a_i > 0 and
    arguments z_i >= 0, z broadcast against a (one z for a column, or one
    per shape for several columns in one call); the result has their
    broadcast shape.

    Each shape takes the uniform expansion, the series or the continued
    fraction (see the module docstring); z = 0 and z = inf are exact.  Both
    logs are evaluated directly and stay finite far below double range, so
    exp of either has absolute error below 1e-13 and a tiny P or Q keeps its
    relative accuracy.
    """
    a, z = np.asarray(a, dtype=float), np.asarray(z, dtype=float)
    if z.ndim:
        a, z = np.broadcast_arrays(a, z)
        z = z.ravel()
    shape = a.shape
    a = a.ravel()  # one z stays a scalar
    if not np.all(z >= 0):
        bad = np.atleast_1d(z)[~(np.atleast_1d(z) >= 0)][0]
        raise ValueError(f"incomplete gamma requires z >= 0, got {float(bad)!r}")
    if not np.all((a > 0) & (a < np.inf)):
        raise ValueError("incomplete gamma requires finite shapes a > 0")
    eta, uniform, series = _branches(a, z)
    if uniform.all():
        log_p, log_q = _uniform_log_pq(a, eta)
        return log_p.reshape(shape), log_q.reshape(shape)
    z = np.broadcast_to(z, a.shape)
    log_p = np.empty_like(a)
    log_q = np.empty_like(a)
    log_p[uniform], log_q[uniform] = _uniform_log_pq(a[uniform], eta[uniform])
    saturated = ~uniform & (a >= A_SATURATED)
    p_zero, q_zero = (z == 0.0) | (saturated & (z < a)), np.isinf(z) | (saturated & (z > a))
    log_p[p_zero], log_q[p_zero] = -np.inf, 0.0
    log_p[q_zero], log_q[q_zero] = 0.0, -np.inf
    series &= ~p_zero
    frac = ~(uniform | series | p_zero | q_zero)
    log_p[series] = _log_p_series(a[series], z[series])
    log_q[series] = _log1mexp(log_p[series])
    small = series & (a < 1.0)
    log_q[small] = _log_q_small_shape(a[small], z[small])
    log_q[frac] = _log_q_contfrac(a[frac], z[frac])
    log_p[frac] = _log1mexp(log_q[frac])
    return log_p.reshape(shape), log_q.reshape(shape)


def reg_lower_gamma(a: float, z: float) -> float:
    """Regularized lower incomplete gamma P(a, z) = gamma(a, z)/Gamma(a)."""
    return math.exp(log_reg_gamma_pq(np.array([a], dtype=float), z)[0][0])


# Barnes G.  log G(1+w) = (w^2/2) log w - 3w^2/4 + (w/2) log 2pi
#   - (1/12) log w + zeta'(-1) + sum_k B_{2k+2}/(4k(k+1)) w^{-2k};
# the tail below lists B_{2k+2}/(4k(k+1)) for k = 1..6 as exact rationals.
_BARNES_TAIL = (
    -1.0 / 240.0,
    1.0 / 1008.0,
    -1.0 / 1440.0,
    1.0 / 1056.0,
    -691.0 / 327600.0,
    1.0 / 144.0,
)
_BARNES_MIN_W = 9.0


def _log_barnes_g_asymptotic(w: float) -> float:
    lw = math.log(w)
    total = (0.5 * w * w - 1.0 / 12.0) * lw - 0.75 * w * w
    total += 0.5 * w * math.log(2.0 * math.pi)
    total += ZETA_PRIME_MINUS_ONE
    w2 = w * w
    p = 1.0
    for coeff in _BARNES_TAIL:
        p *= w2
        total += coeff / p
    return total


def log_barnes_g(z: float) -> float:
    """log G(z) for finite z > 0, G the Barnes G-function (G(z+1) = Gamma(z)
    G(z)); ValueError where log G(z) is past double range (z above ~1e153)."""
    if not 0 < z < math.inf:
        raise ValueError(f"log_barnes_g requires finite z > 0, got {z!r}")
    shift = 0
    w = z - 1.0
    while w < _BARNES_MIN_W:
        shift += 1
        w += 1.0
    # G(z) = G(z + shift) / (Gamma(z) Gamma(z+1) ... Gamma(z+shift-1))
    total = _log_barnes_g_asymptotic(w)
    for i in range(shift):
        total -= math.lgamma(z + i)
    if not math.isfinite(total):
        raise ValueError(f"log G(z) is past double range at z = {z!r}")
    return total


# Gauss-Legendre: GL_ORDER nodes per panel
GL_ORDER = 40


def _legendre(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_N(x) and P_(N-1)(x), N = GL_ORDER, by the three-term recurrence."""
    prev, cur = np.ones_like(x), x
    for k in range(2, GL_ORDER + 1):
        prev, cur = cur, ((2 * k - 1) * x * cur - (k - 1) * prev) / k
    return cur, prev


@functools.cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """The GL_ORDER-node Gauss-Legendre rule on [-1, 1], ascending: Newton's
    method on P_N from the roots' cosine estimates, w = 2/((1 - x^2) P_N'^2),
    then symmetrized and scaled to integrate 1 exactly, as numpy's leggauss
    does after its eigenvalue start (a few ulp from it)."""
    k = np.arange(GL_ORDER, 0, -1)
    x = np.cos(math.pi * (k - 0.25) / (GL_ORDER + 0.5))
    for _ in range(20):
        p, q = _legendre(x)
        dx = p * (1.0 - x) * (1.0 + x) / (GL_ORDER * (q - x * p))  # P_N / P_N'
        x = x - dx
        if np.abs(dx).max() <= 1e-16:
            break
    p, q = _legendre(x)
    one_minus_x2 = (1.0 - x) * (1.0 + x)
    dp = GL_ORDER * (q - x * p) / one_minus_x2
    w = 2.0 / (one_minus_x2 * dp * dp)
    x, w = (x - x[::-1]) / 2.0, (w + w[::-1]) / 2.0
    return x, w * (2.0 / w.sum())


@functools.cache
def unit_rule(panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of `panels` equal Gauss-Legendre panels on [0, 1]
    (read-only arrays)."""
    x, w = _legendre_rule()
    half = 0.5 / panels
    starts = np.arange(panels) / panels
    nodes = (starts[:, None] + half * (x + 1.0)).ravel()
    weights = np.tile(half * w, panels)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights
