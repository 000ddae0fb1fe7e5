"""The standard-normal quantile ``ndtri`` and the complementary error
function ``erfc`` on Python floats, without importing ``scipy.special``.

Both are ports of Cephes (S. L. Moshier, *Methods and Programs for
Mathematical Functions*, 1989): ``ndtri`` of ndtri.c, ``erfc`` and ``erf``
of ndtr.c, with their coefficients.  ``scipy.special`` compiles the same
routines, and the port keeps their branches, their Horner order
(``polevl``/``p1evl``) and their ``log``, ``sqrt`` and ``exp`` calls, so it
returns the same doubles.  ``tests/test_normal.py`` holds it to
``scipy.special`` bit for bit; that test is what guards the port on any
other platform, libm or scipy build.
"""

import math

_S2PI = 2.50662827463100050242E0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_MAXLOG = 7.09782712893383996843E2  # log(DBL_MAX)

# ndtri: rational approximations for the centre and for 1/x in the two tails
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1, 1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1, -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1, 1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1, 4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0, -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1, 1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1, -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0, 1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2, 3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0, 2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4, 2.89247864745380683936E-6, 6.79019408009981274425E-9)
# erfc on [1, 8) and on [8, inf), and erf on [0, 1]
_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0, 4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2, 9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2, 9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3, 1.65666309194161350182E3, 5.57535340817727675546E2)
_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0, 6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1, 1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3, 7.00332514112805075473E3, 5.55923013010394962768E4)
_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3, 2.26290000613890934246E4, 4.92673942608635921086E4)


def _polevl(x, coefs):
    """The polynomial with ``coefs``, highest power first, by Horner's rule."""
    ans = coefs[0]
    for coef in coefs[1:]:
        ans = ans * x + coef
    return ans


def _p1evl(x, coefs):
    """``_polevl`` with an implied leading coefficient of 1.0 (1.0 * x is x)."""
    return _polevl(x, (1.0, *coefs))


def ndtri(y0):
    """The x at which the standard-normal CDF equals ``y0``: -inf at 0, inf
    at 1 and NaN outside [0, 1]."""
    y = float(y0)
    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return math.inf
    if y < 0.0 or y > 1.0:
        return math.nan
    negate = True
    if y > 1.0 - _EXP_M2:
        y, negate = 1.0 - y, False
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:  # y > exp(-32)
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    return -(x0 - x1) if negate else x0 - x1


def erf(x):
    """The error function of ``x``."""
    x = float(x)
    if math.isnan(x):
        return math.nan
    if x < 0.0:
        return -erf(-x)
    if x > 1.0:
        return 1.0 - erfc(x)
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def erfc(a):
    """The complementary error function ``1 - erf(a)``, without its
    cancellation for large ``a``."""
    a = float(a)
    if math.isnan(a):
        return math.nan
    x = -a if a < 0.0 else a
    if x < 1.0:
        return 1.0 - erf(a)
    z = -a * a
    if z < -_MAXLOG:  # exp(z) underflows
        return 2.0 if a < 0 else 0.0
    z = math.exp(z)
    if x < 8.0:
        y = z * _polevl(x, _P) / _p1evl(x, _Q)
    else:
        y = z * _polevl(x, _R) / _p1evl(x, _S)
    # Cephes takes a zero y as an underflow, which returns the same +0.0.
    return 2.0 - y if a < 0 else y
