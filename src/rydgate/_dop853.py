"""Adaptive Dormand-Prince 8(5,3) stepper for the gate's linear Schroedinger system.

DOP853 of Hairer, Norsett & Wanner, Solving Ordinary Differential Equations
I (2nd ed.), Sec. II.10, for the one ODE the package solves,

    y' = (d0 + E(t) d_det) * y + Omega(t) (R @ y),   (Omega(t), E(t)) = drive(t),

with diagonals d0, d_det and a constant matrix R. The loop repeats SciPy
1.17's solve_ivp(method="DOP853", t_eval=...) on the right-hand side
(d0 + E * d_det) * y + Omega * (R @ y) floating-point operation for
operation: the same tableau literals, initial-step selection, step-size law,
error norm and dense output, with every numpy call made on the same operands
in the same order. It therefore takes the same steps and returns the same
bits. The departures are two stops with ToleranceFailure where SciPy would
go on: a NaN step size, and more than MAX_ATTEMPTS step attempts in one call.

Only the call overhead differs. Each attempt evaluates the drive at its 12
stage times in Python floats, writes the values through a real view into a
complex staging buffer and forms the 12 stage diagonals in two ufunc calls.
Each stage is then seven numpy calls and nothing else: prebound methods
that take their output buffer positionally, with r.dot(y) for the zgemv
that np.matmul(r, y) makes without its gufunc overhead. The stage loop
makes no Python call of its own, and the time arithmetic stays in Python
floats.

The 7th-degree dense output is evaluated out of the step loop, for many
steps at once. An accepted step that passes times of t_eval only copies
its 13 stages, its two end states, t and h into a chunk of CHUNK rows.
When the chunk is full, and at the end of the call, _dense_output
computes the three interpolation stages, the interpolant's coefficients
and the Horner sums at every output time of the chunk in one pass.
np.matmul there makes, row by row, the zgemv or zgemm the loop would make
on a single step, and every elementwise product keeps its operand order,
so the bits stay SciPy's. Only the drive's call order changes: it is
evaluated at a chunk's interpolation stages after the chunk's last step.
"""

import math
import warnings

import numpy as np

from .errors import ToleranceFailure

N_STAGES = 12  # stages of a step; the RHS is evaluated N_STAGES times per attempt
N_STAGES_EXTENDED = 16  # plus f at the step's end and three stages for the dense output
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10  # step-size law
ERROR_EXPONENT = -1 / 8  # the error estimator is of order 7
EPS = np.finfo(float).eps
RTOL_FLOOR = 100 * EPS  # SciPy's smallest rtol; SimConfig and the config file reject less
MAX_ATTEMPTS = 100_000  # step attempts per call before ToleranceFailure; gates take 600-4000
# output steps whose dense output is evaluated together: a gate solve (n 4-8)
# takes 7-9% less time than with the per-step dense output at 16-128, 7% at
# 8, 4.5% at 4, and 8.5% more at 1 (one BLAS thread)
CHUNK = 32

_C = np.array([
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0, 1.0,
    0.1, 0.2, 0.777777777777777777777777777778])

_A_ROWS = {  # nonzero entries of row i of the extended tableau, {column: value}
    1: {0: 5.26001519587677318785587544488e-2},
    2: {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    3: {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    4: {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
        3: 9.24834003261792003115737966543e-1},
    5: {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
        4: 1.25467687566822425016691814123e-1},
    6: {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
        4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    7: {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
        4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
        6: 8.27378916381402288758473766002e-3},
    8: {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
        4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
        6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    9: {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
        4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
        6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
        8: -2.03312017085086261358222928593e-2},
    10: {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
         4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
         6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
         8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    11: {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
         4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
         6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
         8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
         10: 6.43392746015763530355970484046e-1},
    12: {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
         6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
         8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
         10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
    13: {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
         7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
         9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
         11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    14: {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
         6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
         10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
         12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
    15: {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
         6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
         8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
         13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
}
_D_ROWS = (  # dense-output coefficients of the interpolant's powers 3..6
    {0: -0.84289382761090128651353491142e+1, 5: 0.56671495351937776962531783590,
     6: -0.30689499459498916912797304727e+1, 7: 0.23846676565120698287728149680e+1,
     8: 0.21170345824450282767155149946e+1, 9: -0.87139158377797299206789907490,
     10: 0.22404374302607882758541771650e+1, 11: 0.63157877876946881815570249290,
     12: -0.88990336451333310820698117400e-1, 13: 0.18148505520854727256656404962e+2,
     14: -0.91946323924783554000451984436e+1, 15: -0.44360363875948939664310572000e+1},
    {0: 0.10427508642579134603413151009e+2, 5: 0.24228349177525818288430175319e+3,
     6: 0.16520045171727028198505394887e+3, 7: -0.37454675472269020279518312152e+3,
     8: -0.22113666853125306036270938578e+2, 9: 0.77334326684722638389603898808e+1,
     10: -0.30674084731089398182061213626e+2, 11: -0.93321305264302278729567221706e+1,
     12: 0.15697238121770843886131091075e+2, 13: -0.31139403219565177677282850411e+2,
     14: -0.93529243588444783865713862664e+1, 15: 0.35816841486394083752465898540e+2},
    {0: 0.19985053242002433820987653617e+2, 5: -0.38703730874935176555105901742e+3,
     6: -0.18917813819516756882830838328e+3, 7: 0.52780815920542364900561016686e+3,
     8: -0.11573902539959630126141871134e+2, 9: 0.68812326946963000169666922661e+1,
     10: -0.10006050966910838403183860980e+1, 11: 0.77771377980534432092869265740,
     12: -0.27782057523535084065932004339e+1, 13: -0.60196695231264120758267380846e+2,
     14: 0.84320405506677161018159903784e+2, 15: 0.11992291136182789328035130030e+2},
    {0: -0.25693933462703749003312586129e+2, 5: -0.15418974869023643374053993627e+3,
     6: -0.23152937917604549567536039109e+3, 7: 0.35763911791061412378285349910e+3,
     8: 0.93405324183624310003907691704e+2, 9: -0.37458323136451633156875139351e+2,
     10: 0.10409964950896230045147246184e+3, 11: 0.29840293426660503123344363579e+2,
     12: -0.43533456590011143754432175058e+2, 13: 0.96324553959188282948394950600e+2,
     14: -0.39177261675615439165231486172e+2, 15: -0.14972683625798562581422125276e+3},
)


def _from_entries(rows, shape):
    """Array of the given shape with the entries {row: {column: value}}."""
    out = np.zeros(shape)
    for i, row in rows.items():
        for j, value in row.items():
            out[i, j] = value
    return out


_A_EXT = _from_entries(_A_ROWS, (N_STAGES_EXTENDED, N_STAGES_EXTENDED))
B = _A_EXT[N_STAGES, :N_STAGES]
E5 = np.array([  # weights of the 5th-order error estimate
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1, 0.0])
E3 = np.append(B, 0.0)  # weights of the 3rd-order error estimate
E3[[0, 8, 11]] -= [0.244094488188976377952755905512, 0.733846688281611857341361741547,
                   0.220588235294117647058823529412e-1]
D = _from_entries(dict(enumerate(_D_ROWS)), (len(_D_ROWS), N_STAGES_EXTENDED))

# The tables as the loop consumes them. np.dot casts real weights to the
# complex state's dtype, so casting once here leaves every product unchanged.
# Stage s weighs K[:s] with row s; row N_STAGES is B and its node 1.0, so the
# new state and f at the step's end are the last stage of an attempt, and
# stages N_STAGES + 1.. are the dense output's.
_STAGE_A = [None] + [_A_EXT[s, :s].astype(complex) for s in range(1, N_STAGES_EXTENDED)]
_NODES = _C.tolist()
_E5, _E3, _D = E5.astype(complex), E3.astype(complex), D.astype(complex)


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _dense_output(K, y_old, y, spans, drive_at, r, t_eval, out, first):
    """Evaluate the dense output of J recorded steps at the times of t_eval they pass.

    Row j of K (J, N_STAGES_EXTENDED, m), y_old and y (J, m) is one accepted
    step: K[j, :N_STAGES + 1] its stages, f at its start first and f at its
    end last, and y_old[j] and y[j] the states at its ends. spans[j] is
    (t_old, h, stop): the step [t_old, t_old + h] passes t_eval[start:stop],
    where start is the previous row's stop, and first for row 0.
    drive_at(times, values_re, e_values, rows) is dop853's: it writes
    (Omega, E) at the given times into the real parts values_re of a complex
    array whose E column is e_values, and d0 + E d_det into rows. Writes
    the interpolation stages into K[:, N_STAGES + 1:] and the states into
    out[first:stop].

    Each row repeats SciPy's per-step dense output operation for operation:
    np.matmul makes one zgemv per row for the stage inputs and R y and one
    zgemm per row for D K, the calls dop853's step loop makes on a single
    row, and the elementwise products keep their operand order.
    """
    multiply, add, subtract = np.multiply, np.add, np.subtract
    t_old, h, stop = (list(column) for column in zip(*spans))
    n_rows = len(h)
    h_col = np.array(h, dtype=complex)[:, None]
    y_in, tmp = np.empty_like(y), np.empty_like(y)
    # the drive at the three stages' times of every row, in one pass, with
    # (Omega, E) held complex as in the step loop
    times = [t + c * dt for c in _NODES[N_STAGES + 1:] for t, dt in zip(t_old, h)]
    drv = np.zeros((len(times), 2), dtype=complex)
    diags = np.empty((len(times), y.shape[1]), dtype=complex)
    drive_at(times, drv.real, drv[:, 1:], diags)
    omegas = drv[:, :1]
    for i, s in enumerate(range(N_STAGES + 1, N_STAGES_EXTENDED)):
        rows = slice(i * n_rows, (i + 1) * n_rows)
        np.matmul(_STAGE_A[s], K[:, :s], out=y_in)
        multiply(y_in, h_col, y_in)
        add(y_old, y_in, y_in)
        k = K[:, s]
        np.matmul(r, y_in[:, :, None], out=k[:, :, None])
        multiply(omegas[rows], k, k)
        multiply(diags[rows], y_in, tmp)
        add(tmp, k, k)

    F = np.empty((n_rows, 3 + len(D), y.shape[1]), dtype=complex)  # interpolant coefficients
    subtract(y, y_old, F[:, 0])
    multiply(h_col, K[:, 0], F[:, 1])
    subtract(F[:, 1], F[:, 0], F[:, 1])
    add(K[:, N_STAGES], K[:, 0], tmp)
    multiply(h_col, tmp, tmp)
    multiply(2, F[:, 0], F[:, 2])
    subtract(F[:, 2], tmp, F[:, 2])
    np.matmul(_D, K, out=F[:, 3:])
    multiply(h_col[:, :, None], F[:, 3:], F[:, 3:])

    # Horner's rule in x and 1 - x, one row per output time
    t_old, h, row = np.array(t_old), np.array(h), slice(None)
    if stop[-1] - first > n_rows:  # some step passes several output times
        # gathered one coefficient at a time, so the copies stay the size of dense
        row = np.repeat(np.arange(n_rows), np.diff(stop, prepend=first))
        t_old, h, y_old = t_old[row], h[row], y_old[row]
    x = ((t_eval[first:stop[-1]] - t_old) / h)[:, None]
    one_minus_x = 1 - x
    dense = out[first:stop[-1]]
    dense[...] = 0
    for i in range(F.shape[1]):
        dense += F[row, -1 - i]
        dense *= one_minus_x if i % 2 else x
    dense += y_old


def dop853(d0, d_det, r, drive, t0, t1, y0, rtol, atol, t_eval, drive_end):
    """Integrate y' = (d0 + E d_det) * y + Omega (r @ y) from t0 to t1 > t0; sample y on t_eval.

    d0, d_det and y0 are complex 1-D arrays of one length n, r is a complex
    (n, n) array, and drive(t) -> (Omega, E) returns two real numbers and is
    evaluated at stage times clamped to [t0, drive_end], drive_end <= t1.
    t_eval is increasing inside [t0, t1]. rtol is raised to RTOL_FLOOR, with
    a warning, when it is below. The states at t_eval come from the dense
    output of the accepted steps that pass them, so a state at t1 is
    interpolated too; it is evaluated CHUNK steps at a time, so drive must
    depend on t alone. Returns (states (len(t_eval), n), a new array; the
    number of right-hand-side evaluations; accepted steps). y0 is not
    written. Raises ToleranceFailure when the step size falls below 10 ulp
    of t or after MAX_ATTEMPTS step attempts.
    """
    if rtol < RTOL_FLOOR:
        warnings.warn(f"rtol {rtol:.3g} is below 100 eps; using {RTOL_FLOOR:.3g}", stacklevel=2)
        rtol = RTOL_FLOOR
    multiply, add, subtract, divide = np.multiply, np.add, np.subtract, np.divide
    m = y0.size
    K_ext = np.empty((N_STAGES + 1, m), dtype=complex)  # stage derivatives of an attempt
    f = K_ext[0]  # f at the step's start, which is stage 0 of each attempt
    diag = np.empty((N_STAGES + 1, m), dtype=complex)  # d0 + E d_det of each stage
    # (Omega, E) of each stage slot, held complex: numpy casts a real operand
    # to exactly these values, so the products keep their bits, and the 0-d
    # views skip that per-call conversion. The drive writes the real parts
    # through a float view; the imaginary parts stay zero.
    drv = np.zeros((N_STAGES + 1, 2), dtype=complex)
    drv_re, e_col = drv.real, drv[:, 1:]
    h_c = np.empty((), dtype=complex)  # the step size, held complex likewise
    tmp = np.empty(m, dtype=complex)
    r_dot = r.dot  # the zgemv of np.matmul(r, y), without the gufunc's overhead
    # stage s: the product K[:s].T @ a_s, row a_s of the tableau, its Omega,
    # its diagonal and its derivative K[s]
    plan = [(K_ext[:s].T.dot, _STAGE_A[s], drv[s, 0, ...], diag[s], K_ext[s])
            for s in range(N_STAGES + 1)]

    def drive_at(times, values_re, e_values, rows):
        """Drive at the given times into the real parts values_re and the diagonals rows.

        e_values is the E column of the complex array whose real parts are values_re.
        """
        # min/max are called only for a time outside [t0, drive_end]; inside, they return t
        values_re[...] = [drive(u if t0 <= u <= drive_end else min(max(u, t0), drive_end))
                          for u in times]
        multiply(e_values, d_det, rows)
        add(d0, rows, rows)

    def stages(first, stop, t, h, y, y_in):
        """Stages first..stop-1 of the step h from (t, y) into K_ext; y_in ends as the last input."""
        drive_at([t + c * h for c in _NODES[first:stop]], drv_re[first:stop], e_col[first:stop],
                 diag[first:stop])
        h_c[()] = h
        for k_dot, a, omega, diag_s, k in plan[first:stop]:
            k_dot(a, y_in)
            multiply(y_in, h_c, y_in)
            add(y, y_in, y_in)
            # k = (d0 + E d_det) * y_in + Omega (r @ y_in); operands keep this
            # order: numpy's complex products are not bitwise commutative
            r_dot(y_in, k)
            multiply(omega, k, k)
            multiply(diag_s, y_in, tmp)
            add(tmp, k, k)

    def rhs_start(y_in, out):
        """The stages' right-hand side at y_in with slot 0's drive; sets the first step size."""
        r_dot(y_in, out)
        multiply(drv[0, 0, ...], out, out)
        multiply(diag[0], y_in, tmp)
        add(tmp, out, out)

    # the state rotates through three buffers: y, y_old, and y_new, which
    # holds stage inputs and, after the last stage of an attempt, the new state
    y, y_new, y_old = y0.copy(), np.empty(m, dtype=complex), np.empty(m, dtype=complex)
    drive_at([t0], drv_re[:1], e_col[:1], diag[:1])
    rhs_start(y, f)

    # first step size from the local behaviour of the solution (Hairer et al., Sec. II.4)
    interval_length = abs(t1 - t0)
    scale = atol + np.abs(y) * rtol
    d_0 = _rms(y / scale)
    d_1 = _rms(f / scale)
    h0 = 1e-6 if d_0 < 1e-5 or d_1 < 1e-5 else 0.01 * d_0 / d_1
    h0 = min(h0, interval_length)
    drive_at([t0 + h0], drv_re[:1], e_col[:1], diag[:1])
    multiply(h0, f, y_new)
    add(y, y_new, y_new)
    f1 = K_ext[1]  # unused until the first attempt's stage 1
    rhs_start(y_new, f1)
    d_2 = _rms((f1 - f) / scale) / h0
    if d_1 <= 1e-15 and d_2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d_1, d_2)) ** -ERROR_EXPONENT
    h_abs = float(min(100 * h0, h1, interval_length))

    t_eval_list = t_eval.tolist()
    out = np.empty((len(t_eval), m), dtype=complex)
    # the chunk: one row per accepted step that passes times of t_eval, its
    # dense output evaluated when CHUNK rows are recorded and at the end
    K_rows = np.empty((CHUNK, N_STAGES_EXTENDED, m), dtype=complex)
    y_old_rows, y_rows = np.empty((CHUNK, m), dtype=complex), np.empty((CHUNK, m), dtype=complex)
    spans, i_done = [], 0  # (t_old, h, stop) per row; outputs before i_done are written

    def flush(first):
        n = len(spans)
        _dense_output(K_rows[:n], y_old_rows[:n], y_rows[:n], spans, drive_at, r, t_eval, out,
                      first)
        spans.clear()

    absolute, maximum, abs_y, abs_new = np.absolute, np.maximum, np.abs(y), np.empty(m)
    err5, err3 = np.empty(m, dtype=complex), np.empty(m, dtype=complex)
    err5_re, err5_im, err3_re, err3_im = err5.real, err5.imag, err3.real, err3.imag
    err_dot = K_ext.T.dot
    f_new = K_ext[N_STAGES]  # the last stage of an attempt is f at the step's end
    nfev, steps, attempts, i_eval = 2, 0, 0, 0
    t = t0
    while t < t1:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if not h_abs >= min_step:  # also stops on a NaN step size
                raise ToleranceFailure(f"DOP853 step size fell below 10 ulp at t = {t}")
            if attempts == MAX_ATTEMPTS:
                raise ToleranceFailure(f"DOP853 made {MAX_ATTEMPTS} step attempts by t = {t}")
            attempts += 1
            t_new = t + h_abs
            if t_new - t1 > 0:
                t_new = t1
            h = t_new - t
            h_abs = abs(h)

            stages(1, N_STAGES + 1, t, h, y, y_new)
            nfev += N_STAGES

            # error norm: RMS of the 5th-order estimate, damped by the 3rd-order one
            absolute(y_new, abs_new)
            maximum(abs_y, abs_new, out=scale)  # np.maximum deprecates a positional out
            multiply(scale, rtol, scale)
            add(atol, scale, scale)
            err_dot(_E5, err5)
            divide(err5, scale, err5)
            err_dot(_E3, err3)
            divide(err3, scale, err3)
            # np.linalg.norm of a complex vector: sqrt(re . re + im . im)
            err5_norm_2 = math.sqrt(err5_re.dot(err5_re) + err5_im.dot(err5_im)) ** 2
            err3_norm_2 = math.sqrt(err3_re.dot(err3_re) + err3_im.dot(err3_im)) ** 2
            if err5_norm_2 == 0 and err3_norm_2 == 0:
                error_norm = 0.0
            else:
                denom = err5_norm_2 + 0.01 * err3_norm_2
                error_norm = h_abs * err5_norm_2 / math.sqrt(denom * m)

            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True

        t_old, t = t, t_new
        y_old, y, y_new = y, y_new, y_old
        abs_y, abs_new = abs_new, abs_y
        steps += 1
        i_new = i_eval
        while i_new < len(t_eval_list) and t_eval_list[i_new] <= t:
            i_new += 1
        if i_new > i_eval:
            # record the step for the chunk's dense output; f still holds f at t_old
            n = len(spans)
            K_rows[n, :N_STAGES + 1] = K_ext
            y_old_rows[n] = y_old
            y_rows[n] = y
            spans.append((t_old, h, i_new))
            nfev += N_STAGES_EXTENDED - N_STAGES - 1
            i_eval = i_new
            if n + 1 == CHUNK:
                flush(i_done)
                i_done = i_eval
        f[:] = f_new
    if spans:
        flush(i_done)
    return out, nfev, steps
