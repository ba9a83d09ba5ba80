"""QUADPACK's QAGS on a finite interval, ported from ``dqagse``.

Globally adaptive bisection with the 21-point Gauss-Kronrod rule
(``dqk21``), an error-ordered list of subintervals (``dqpsrt``) and
Wynn's epsilon algorithm to extrapolate the sequence of sums (``dqelg``):
Piessens, de Doncker-Kapenga, Ueberhuber & Kahaner, *QUADPACK*,
Springer 1983; Wynn, MTAC 10, 1956.

The port keeps the Fortran's operations and their order: the same
decimal constants, the same accumulation order in the rule, the same
tests and the same final sum. So it returns what ``scipy.integrate.quad``
returns for a finite interval, bit for bit (the tests compare them), with
Python floats alone. Indices are 0-based where the Fortran's are 1-based.
"""

from __future__ import annotations

import sys
from typing import Callable

EPMACH = sys.float_info.epsilon  # d1mach(4)
UFLOW = sys.float_info.min  # d1mach(1)
OFLOW = sys.float_info.max  # d1mach(2)

# Abscissae of the 21-point Kronrod rule: XGK[1::2] are the 10-point Gauss
# nodes, XGK[0::2] the Kronrod-only ones, XGK[10] the centre.
XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
)
# Weights of the 21-point Kronrod rule, in XGK's order.
WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
# Weights of the 10-point Gauss rule, for the nodes XGK[1::2].
WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)

# Entries of the extrapolation table dqelg keeps (its limexp).
_LIMEXP = 50


def dqk21(f: Callable[[float], float], a: float, b: float) -> tuple[float, float, float, float]:
    """The 21-point Kronrod estimate of the integral of ``f`` over [a, b]
    and its error: ``(result, abserr, resabs, resasc)``, resabs the rule
    applied to |f| and resasc to |f - mean|."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    resg = 0.0
    fc = f(centr)
    resk = WGK[10] * fc
    resabs = abs(resk)
    for j in (1, 3, 5, 7, 9):  # the Gauss nodes
        absc = hlgth * XGK[j]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[j] = fval1
        fv2[j] = fval2
        fsum = fval1 + fval2
        resg = resg + WG[j // 2] * fsum
        resk = resk + WGK[j] * fsum
        resabs = resabs + WGK[j] * (abs(fval1) + abs(fval2))
    for j in (0, 2, 4, 6, 8):  # the Kronrod-only nodes
        absc = hlgth * XGK[j]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[j] = fval1
        fv2[j] = fval2
        fsum = fval1 + fval2
        resk = resk + WGK[j] * fsum
        resabs = resabs + WGK[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        # min(1, x**1.5), raised after the min so a huge x cannot overflow.
        abserr = resasc * min(1.0, 200.0 * abserr / resasc) ** 1.5
    if resabs > UFLOW / (50.0 * EPMACH):
        abserr = max((EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def dqpsrt(limit: int, last: int, maxerr: int, elist: list[float], iord: list[int],
           nrmax: int) -> tuple[int, float, int]:
    """Keep ``iord`` ordering the subintervals by falling error after
    ``last`` (1-based count) were made by bisecting ``maxerr``; returns the
    next ``(maxerr, errmax, nrmax)``. Past limit / 2 + 2 subintervals only
    as many are kept in order as bisections remain."""
    if last <= 2:
        iord[0] = 0
        iord[1] = 1
    else:
        errmax = elist[maxerr]
        # Only if bisection raised the error: move it up past nrmax.
        while nrmax > 1:
            isucc = iord[nrmax - 2]
            if errmax <= elist[isucc]:
                break
            iord[nrmax - 1] = isucc
            nrmax -= 1
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last - 1]
        # Insert errmax top-down, then errmin bottom-up (1-based positions).
        jbnd = jupbn - 1
        i = nrmax + 1
        while i <= jbnd:
            isucc = iord[i - 1]
            if errmax >= elist[isucc]:
                break
            iord[i - 2] = isucc
            i += 1
        if i > jbnd:
            iord[jbnd - 1] = maxerr
            iord[jupbn - 1] = last - 1
        else:
            iord[i - 2] = maxerr
            k = jbnd
            for _ in range(i, jbnd + 1):
                isucc = iord[k - 1]
                if errmin < elist[isucc]:
                    iord[k] = last - 1
                    break
                iord[k] = isucc
                k -= 1
            else:
                iord[i - 1] = last - 1
    maxerr = iord[nrmax - 1]
    return maxerr, elist[maxerr], nrmax


def dqelg(n: int, epstab: list[float], res3la: list[float], nres: int
          ) -> tuple[int, float, float, int]:
    """One step of Wynn's epsilon algorithm on the ``n`` (1-based count)
    entries of ``epstab``, which it updates; returns ``(n, result, abserr,
    nres)``, n shortened where the table was cut, nres the calls made."""
    nres += 1
    abserr = OFLOW
    result = epstab[n - 1]
    if n >= 3:
        epstab[n + 1] = epstab[n - 1]
        newelm = (n - 1) // 2
        epstab[n - 1] = OFLOW
        num = n
        k1 = n
        for i in range(1, newelm + 1):
            k2 = k1 - 1
            k3 = k1 - 2
            res = epstab[k1 + 1]
            e0 = epstab[k3 - 1]
            e1 = epstab[k2 - 1]
            e2 = res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * EPMACH
            if not (err2 > tol2 or err3 > tol3):
                # e0, e1 and e2 agree to machine accuracy: converged.
                result = res
                abserr = err2 + err3
                return n, result, max(abserr, 5.0 * EPMACH * abs(result)), nres
            e3 = epstab[k1 - 1]
            epstab[k1 - 1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * EPMACH
            # Two close elements, or irregular behaviour: cut the table.
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            epsinf = abs(ss * e1)
            if not epsinf > 1e-4:
                n = i + i - 1
                break
            res = e1 + 1.0 / ss
            epstab[k1 - 1] = res
            k1 -= 2
            error = err2 + abs(res - e2) + err3
            if not error > abserr:
                abserr = error
                result = res
        # Shift the table.
        if n == _LIMEXP:
            n = 2 * (_LIMEXP // 2) - 1
        ib = 2 if num % 2 == 0 else 1
        for _ in range(newelm + 1):
            epstab[ib - 1] = epstab[ib + 1]
            ib += 2
        if num != n:
            indx = num - n + 1
            for i in range(n):
                epstab[i] = epstab[indx - 1]
                indx += 1
        if nres < 4:
            res3la[nres - 1] = result
            abserr = OFLOW
        else:
            abserr = abs(result - res3la[2]) + abs(result - res3la[1]) + abs(result - res3la[0])
            res3la[0] = res3la[1]
            res3la[1] = res3la[2]
            res3la[2] = result
    return n, result, max(abserr, 5.0 * EPMACH * abs(result)), nres


def dqagse(f: Callable[[float], float], a: float, b: float, epsabs: float, epsrel: float,
           limit: int) -> tuple[float, float, int, int]:
    """The integral of ``f`` over the finite interval [a, b] to within
    max(epsabs, epsrel * |integral|), in at most ``limit`` subintervals.

    Returns ``(result, abserr, ier, last)``: the estimate, its error
    bound, QUADPACK's error code (0 success; 1 limit reached; 2 roundoff;
    3 bad integrand behaviour; 4 no convergence of the extrapolation; 5
    divergent or slowly convergent; 6 invalid tolerances) and the
    subintervals used, as ``quad(..., full_output=1)`` gives ``result``,
    ``abserr``, its ``ier`` and ``infodict["last"]``.
    """
    if epsabs <= 0.0 and epsrel < max(50.0 * EPMACH, 0.5e-28) or limit < 1:
        return 0.0, 0.0, 6, 0
    alist = [0.0] * limit
    blist = [0.0] * limit
    rlist = [0.0] * limit
    elist = [0.0] * limit
    iord = [0] * limit
    alist[0] = a
    blist[0] = b
    ierro = 0
    result, abserr, defabs, resabs = dqk21(f, a, b)

    # Test on accuracy.
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    last = 1
    rlist[0] = result
    elist[0] = abserr
    iord[0] = 0
    ier = 0
    if abserr <= 100.0 * EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, ier, last

    rlist2 = [0.0] * (_LIMEXP + 2)
    res3la = [0.0] * 3
    rlist2[0] = result
    errmax = abserr
    maxerr = 0
    area = result
    errsum = abserr
    abserr = OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    iroff1 = iroff2 = iroff3 = 0
    ksgn = 1 if dres >= (1.0 - 50.0 * EPMACH) * defabs else -1
    small = erlarg = ertest = correc = 0.0

    summed = False  # the Fortran's jump to 115: the result is the sum of rlist
    for last in range(2, limit + 1):
        # Bisect the subinterval with the nrmax-th largest error.
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, _, defab1 = dqk21(f, a1, b1)
        area2, error2, _, defab2 = dqk21(f, a2, b2)

        # Improve the integral and error and test for accuracy.
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last - 1] = area2
        errbnd = max(epsabs, epsrel * abs(area))

        # Roundoff, the subinterval limit and bad behaviour at a point.
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * EPMACH) * (abs(a2) + 1000.0 * UFLOW):
            ier = 4

        # Append the new subintervals.
        if error2 > error1:
            alist[maxerr] = a2
            alist[last - 1] = a1
            blist[last - 1] = b1
            rlist[maxerr] = area2
            rlist[last - 1] = area1
            elist[maxerr] = error2
            elist[last - 1] = error1
        else:
            alist[last - 1] = a2
            blist[maxerr] = b1
            blist[last - 1] = b2
            elist[maxerr] = error1
            elist[last - 1] = error2

        maxerr, errmax, nrmax = dqpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            summed = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[1] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # Go on bisecting unless the next interval is the smallest.
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # The smallest interval has the largest error: bisect the
            # larger ones first while they hold errors above erlarg.
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax - 1]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue

        # Extrapolate.
        numrl2 += 1
        rlist2[numrl2 - 1] = area
        numrl2, reseps, abseps, nres = dqelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break

        # Prepare to bisect the smallest interval.
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[0]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # Set the final result and error estimate (the Fortran's labels 100-130).
    if not summed:
        summed = abserr == OFLOW
    if not summed and ier + ierro != 0:
        if ierro == 3:
            abserr = abserr + correc
        if ier == 0:
            ier = 3
        if result != 0.0 and area != 0.0:
            summed = abserr / abs(result) > errsum / abs(area)
        elif abserr > errsum:
            summed = True
        elif area == 0.0:
            return result, abserr, ier - 1 if ier > 2 else ier, last
    if summed:
        result = 0.0
        for k in range(last):
            result = result + rlist[k]
        abserr = errsum
    elif not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
        # Test on divergence. Where Python raises on result / 0.0, IEEE
        # gives +-inf, out of range, or nan (0 / 0), in range of neither test.
        if area == 0.0:
            diverged = abs(result) > 0.0 or errsum > 0.0
        else:
            diverged = 0.01 > result / area or result / area > 100.0 or errsum > abs(area)
        if diverged:
            ier = 6
    return result, abserr, ier - 1 if ier > 2 else ier, last
