"""Independent explicit constructions used as elementwise oracles.

Everything here is built directly from printed projector/coherence sums with
plain numpy, never through the package's protocol pipeline, so agreement
with simulated states is a genuine cross-check.
"""

from __future__ import annotations

import re
from itertools import product
from math import prod

import numpy as np


def flat(dims, digits):
    idx = 0
    for d, x in zip(dims, digits):
        idx = idx * d + x
    return idx


def proj(dims, digits):
    side = prod(dims)
    m = np.zeros((side, side), dtype=complex)
    i = flat(dims, digits)
    m[i, i] = 1.0
    return m


def ketbra(dims, bra_digits, ket_digits):
    side = prod(dims)
    m = np.zeros((side, side), dtype=complex)
    m[flat(dims, bra_digits), flat(dims, ket_digits)] = 1.0
    return m


def ghz_matrix(n, d):
    side = d**n
    vec = np.zeros(side, dtype=complex)
    for i in range(d):
        vec[flat((d,) * n, (i,) * n)] = 1.0
    vec /= np.sqrt(d)
    return np.outer(vec, vec.conj())


def psi_plus_matrix():
    return ghz_matrix(2, 2)


def random_density(rng, side):
    g = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    m = g @ g.conj().T
    return m / np.trace(m)


def random_unitary(rng, side):
    g = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# The three start states as literal k-sums of product phase states.


def _phase_ket(phases):
    """(1/sqrt(n)) sum_j exp(i phases[j]) |j>."""
    phases = np.asarray(phases, dtype=float)
    return np.exp(1j * phases) / np.sqrt(phases.size)


def _mix(kets, tags, tag_weight, dims):
    """sum_k ket_k ket_k^dagger plus tag_weight on every tag projector."""
    m = sum(np.outer(v, v.conj()) for v in kets)
    for digits in tags:
        m = m + tag_weight * proj(dims, digits)
    return m


def two_qubit_initial_ksum():
    """(1/6) sum_{k<4} |psi_k, psi_-k, 0><...| + (|001><001| + |111><111|)/6,
    psi_k = (|0> + exp(i k pi/2) |1>)/sqrt(2)."""
    e0 = np.array([1.0, 0.0])
    kets = [
        np.kron(np.kron(_phase_ket([0, k * np.pi / 2]), _phase_ket([0, -k * np.pi / 2])), e0)
        / np.sqrt(6.0)
        for k in range(4)
    ]
    return _mix(kets, [(0, 0, 1), (1, 1, 1)], 1.0 / 6.0, (2, 2, 2))


def ghz_initial_ksum():
    """(4/49) sum_{k<7} |phi_1(k) phi_2(k) phi_3(k), 00><...| + |mmm, jl><...|/14
    for jl != 00, phi_n(k) = (|0> + exp(2^n pi i k / 7) |1>)/sqrt(2)."""
    anc00 = np.array([1.0, 0.0, 0.0, 0.0])
    kets = []
    for k in range(7):
        vec = np.ones(1)
        for n in (1, 2, 3):
            vec = np.kron(vec, _phase_ket([0, 2**n * np.pi * k / 7]))
        kets.append(np.kron(vec, anc00) * np.sqrt(4.0 / 49.0))
    tags = [(m, m, m, j, l) for m, j, l in product(range(2), repeat=3) if (j, l) != (0, 0)]
    return _mix(kets, tags, 1.0 / 14.0, (2,) * 5)


def qudit_initial_ksum(d):
    """d/(D(2d-1)) sum_{k<D} |phi(k), phi(-k), 0><...| + |j, j, l-j><...|/(d(2d-1))
    for j != l, phi(+-k) = (1/sqrt(d)) sum_j w^(+-s_j k) |j>, w = exp(2 pi i/D),
    D = 2^d - 1, s_j = 2^j - 1."""
    big_d = 2**d - 1
    s = 2.0 ** np.arange(d) - 1
    e0 = np.eye(d)[0]
    kets = [
        np.kron(
            np.kron(_phase_ket(2 * np.pi * s * k / big_d), _phase_ket(-2 * np.pi * s * k / big_d)),
            e0,
        )
        * np.sqrt(d / (big_d * (2 * d - 1)))
        for k in range(big_d)
    ]
    tags = [(j, j, (l - j) % d) for j in range(d) for l in range(d) if j != l]
    return _mix(kets, tags, 1.0 / (d * (2 * d - 1)), (d, d, d))


def phase_rule_entries(exponents, modulus, weight, exchange_dims, tags, tag_weight):
    """(rows, cols, values), ordered by position, of ``weight * M (x) |0...0><0...0|``
    plus ``tag_weight`` on every tag projector, where M is the k-average of the
    product phase states with exponents e(x) = sum_t exponents[t][x_t] and
    phase count ``modulus``: (1/D) sum_{k<D} w^(k (e(x) - e(y))) is 1 where
    e(x) = e(y) mod D and 0 elsewhere, so M[x, y] = [e(x) = e(y) mod D] / side."""
    e = np.zeros(1, dtype=np.int64)
    for row in exponents:
        e = (e[:, None] + np.asarray(row, dtype=np.int64)[None, :]).reshape(-1)
    dims = tuple(len(row) for row in exponents) + tuple(exchange_dims)
    x, y = np.nonzero((e[:, None] - e[None, :]) % modulus == 0)
    stride = prod(exchange_dims)
    tagged = np.array([flat(dims, digits) for digits in tags], dtype=np.int64)
    rows, cols = np.concatenate([x * stride, tagged]), np.concatenate([y * stride, tagged])
    values = np.concatenate([np.full(x.size, weight / e.size), np.full(tagged.size, tag_weight)])
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], values[order].astype(complex)


def two_qubit_initial_rule():
    """The two-qubit start state by the modular rule: e(x) = x1 - x2, mod 4."""
    return phase_rule_entries(((0, 1), (0, -1)), 4, 2 / 3, (2,), [(0, 0, 1), (1, 1, 1)], 1 / 6)


def ghz_initial_rule():
    """The GHZ start state by the modular rule: e(x) = x1 + 2 x2 + 4 x3, mod 7."""
    tags = [(m, m, m, j, l) for m, j, l in product(range(2), repeat=3) if (j, l) != (0, 0)]
    return phase_rule_entries(((0, 1), (0, 2), (0, 4)), 7, 4 / 7, (2, 2), tags, 1 / 14)


def qudit_initial_rule(d):
    """The qudit start state by the modular rule: e(x) = s_x1 - s_x2 with
    s_j = 2^j - 1, mod 2^d - 1."""
    s = [2**j - 1 for j in range(d)]
    tags = [(j, j, (l - j) % d) for j in range(d) for l in range(d) if j != l]
    return phase_rule_entries(
        (s, [-x for x in s]), 2**d - 1, d / (2 * d - 1), (d,), tags, 1 / (d * (2 * d - 1))
    )


# ---------------------------------------------------------------------------
# Post-CNOT forms of the three start states.


def two_qubit_after_alice_cnot():
    """GHZ weight 1/3 plus weight 1/6 on every |ijk> with j != k."""
    m = ghz_matrix(3, 2) / 3.0
    for i, j, k in product(range(2), repeat=3):
        if j != k:
            m += proj((2, 2, 2), (i, j, k)) / 6.0
    return m


def ghz_after_alice_cnots():
    """Five-qubit GHZ weight 1/7 plus twelve projectors at weight 1/14."""
    dims = (2, 2, 2, 2, 2)
    pair = {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)}
    m = ghz_matrix(5, 2) / 7.0
    for i in (1, 2, 3):
        m += proj(dims, (0,) + pair[0] + pair[i]) / 14.0
        m += proj(dims, (0,) + pair[i] + pair[0]) / 14.0
    for i in (0, 1, 2):
        m += proj(dims, (1,) + pair[3] + pair[i]) / 14.0
        m += proj(dims, (1,) + pair[i] + pair[3]) / 14.0
    return m


def qudit_after_alice_cnot(d):
    """d-level GHZ weight 1/(2d-1) plus the |jjl>, |jlj> projector families."""
    dims = (d, d, d)
    m = ghz_matrix(3, d) / (2 * d - 1)
    w = 1.0 / (d * (2 * d - 1))
    for j in range(d):
        for l in range(d):
            if j != l:
                m += w * proj(dims, (j, j, l))
                m += w * proj(dims, (j, l, j))
    return m


# ---------------------------------------------------------------------------
# Channel-noised middle state and measured-pair block forms, general
# z-shifted diagonal qubit noise (lambda1, lambda2, lambda3, t).

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def two_qubit_noisy_middle(l1, l2, l3, t):
    """Three-term block form of the state after the channel acts on c."""
    dims2 = (2, 2)
    m = np.zeros((8, 8), dtype=complex)
    for mm in range(2):
        m += np.kron(proj(dims2, (mm, mm)), I2 + t * SZ) / 6.0
    for mm in range(2):
        nn = 1 - mm
        m += np.kron(
            proj(dims2, (mm, nn)), I2 + (t + (-1) ** mm * l3) * SZ
        ) / 12.0
        m += np.kron(
            ketbra(dims2, (mm, mm), (nn, nn)),
            l1 * SX + 1j * (-1) ** mm * l2 * SY,
        ) / 12.0
    return m


def ghz_noisy_middle(l1, l2, l3, t):
    """Block form of the five-qubit state after noise hits both ancillas.

    Uses the channel images E(I) = I + t sz, E(pi_m) and E(|m><n|) on the
    ancilla pair, tensored against the target-qubit blocks.
    """
    e_id = I2 + t * SZ
    e_pi = [0.5 * (I2 + (t + (-1) ** mm * l3) * SZ) for mm in range(2)]
    e_coh = [0.5 * (l1 * SX + 1j * (-1) ** mm * l2 * SY) for mm in range(2)]
    dims3 = (2, 2, 2)
    m = np.zeros((32, 32), dtype=complex)
    for mm in range(2):
        nn = 1 - mm
        m += np.kron(
            ketbra(dims3, (mm,) * 3, (nn,) * 3), np.kron(e_coh[mm], e_coh[mm])
        ) / 14.0
        m += np.kron(
            proj(dims3, (mm,) * 3),
            np.kron(e_id, e_id) - np.kron(e_pi[mm], e_pi[mm]),
        ) / 14.0
        m += np.kron(
            np.kron(proj((2,), (mm,)), np.eye(4)), np.kron(e_pi[mm], e_pi[mm])
        ) / 14.0
    return m


def _f(l, t):
    return 1.0 + (-1) ** (l % 2) * t


def _g(l, l3):
    return (-1) ** (l % 2) * l3


def _h(l, l1, l2):
    return 0.5 * (l1 + (-1) ** (l % 2) * l2)


def two_qubit_pair_branches(l1, l2, l3, t):
    """Measured-pair branches [(q_l, state_l)] of the two-qubit protocol."""
    dims = (2, 2)
    out = []
    for l in (0, 1):
        q = (3.0 - _g(l, l3)) / 6.0
        m = np.zeros((4, 4), dtype=complex)
        coh = 2.0 * _h(l, l1, l2)
        m += coh * ketbra(dims, (0, 0), (1, 1))
        m += coh * ketbra(dims, (1, 1), (0, 0))
        for mm in range(2):
            m += 2.0 * _f(l + mm, t) * proj(dims, (mm, mm))
            m += (_f(l + mm + 1, t) - _g(l, l3)) * proj(dims, (mm, (mm + 1) % 2))
        out.append((q, m / (12.0 * q)))
    return out


def ghz_branches(l1, l2, l3, t):
    """GHZ branches [((l, l'), q, state)] for identical noise on d1 and d2."""
    dims = (2, 2, 2)
    out = []
    for l, lp in product(range(2), repeat=2):
        q = (
            8.0
            + 3.0 * (1.0 - _f(l, t)) * (1.0 - _f(lp, t))
            - (1.0 + _g(l, l3)) * (1.0 + _g(lp, l3))
        ) / 28.0
        m = np.zeros((8, 8), dtype=complex)
        coh = 4.0 * _h(l, l1, l2) * _h(lp, l1, l2)
        for mm in range(2):
            nn = 1 - mm
            m += coh * ketbra(dims, (mm,) * 3, (nn,) * 3)
            m += (
                4.0 * _f(l + mm, t) * _f(lp + mm, t)
                - (_f(l + mm, t) + _g(l, l3)) * (_f(lp + mm, t) + _g(lp, l3))
            ) * proj(dims, (mm,) * 3)
        for mm, n, npr in product(range(2), repeat=3):
            m += (
                (_f(l + n, t) + _g(l + mm + n, l3))
                * (_f(lp + npr, t) + _g(lp + mm + npr, l3))
            ) * proj(dims, (mm, n, npr))
        out.append(((l, lp), q, m / (56.0 * q)))
    return out


# ---------------------------------------------------------------------------
# Depolarizing two-qubit specializations.


def depol_pair_states(p):
    """Success and failure pair states of the depolarizing two-qubit run."""
    dims = (2, 2)
    rho0 = np.zeros((4, 4), dtype=complex)
    for mm in range(2):
        rho0 += proj(dims, (mm, mm))
        nn = 1 - mm
        rho0 += (p / 2.0) * proj(dims, (mm, nn))
        rho0 += (1.0 - p) * ketbra(dims, (mm, mm), (nn, nn))
    rho0 /= 2.0 + p
    rho1 = np.zeros((4, 4), dtype=complex)
    for mm in range(2):
        rho1 += proj(dims, (mm, mm))
        rho1 += ((2.0 - p) / 2.0) * proj(dims, (mm, 1 - mm))
    rho1 /= 4.0 - p
    return rho0, rho1


def depol_pair_average_negativity(p):
    """Branch-averaged a|b negativity of the depolarizing two-qubit run: each
    branch state of ``depol_pair_states`` (weights (2 + p)/6 and (4 - p)/6)
    transposed on a, its trace norm less one summed with its weight."""
    total = 0.0
    for weight, rho in zip(((2.0 + p) / 6.0, (4.0 - p) / 6.0), depol_pair_states(p)):
        pt = rho.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
        total += weight * (np.abs(np.linalg.eigvalsh(pt)).sum() - 1.0)
    return total


def depol_deterministic_output(p):
    """Deterministic-variant output pair under depolarizing noise."""
    i_p0 = np.kron(I2, proj((2,), (0,)))
    diag = sum(proj((2, 2), (i, i)) for i in range(2))
    return ((1.0 - p) / 3.0) * (psi_plus_matrix() + i_p0) + (p / 12.0) * (
        diag + np.eye(4) + 3.0 * i_p0
    )


# ---------------------------------------------------------------------------
# Amplitude damping two-qubit specializations.


def ad_pair_states(g):
    dims = (2, 2)
    rho0 = np.zeros((4, 4), dtype=complex)
    for mm in range(2):
        rho0 += (1.0 + (-1) ** mm * g) * proj(dims, (mm, mm))
    rho0 += g * proj(dims, (1, 0))
    rho0 += np.sqrt(1.0 - g) * (
        ketbra(dims, (0, 0), (1, 1)) + ketbra(dims, (1, 1), (0, 0))
    )
    rho0 /= 2.0 + g
    p0 = proj((2,), (0,))
    rho1 = np.eye(4, dtype=complex) - g * (np.kron(I2, p0) - proj(dims, (1, 1)))
    rho1 /= 4.0 - g
    return rho0, rho1


def ad_deterministic_output(g):
    dims = (2, 2)
    m = np.zeros((4, 4), dtype=complex)
    for mm in range(2):
        m += (1.0 + (-1) ** mm * g) * proj(dims, (mm, mm))
    m += 2.0 * g * proj(dims, (1, 0))
    m += (2.0 - g) * np.kron(I2, proj((2,), (0,)))
    m += np.sqrt(1.0 - g) * (
        ketbra(dims, (0, 0), (1, 1)) + ketbra(dims, (1, 1), (0, 0))
    )
    return m / 6.0


# ---------------------------------------------------------------------------
# GHZ success-branch specializations.


def ghz_depol_success_state(p):
    dims = (2, 2, 2)
    m = 4.0 * (1.0 - p) ** 2 * ghz_matrix(3, 2)
    for mm in range(2):
        m += ((8.0 * p - 5.0 * p * p) / 2.0) * proj(dims, (mm,) * 3)
    for mm in range(2):
        m += p * (1.0 - p) * np.kron(I2, proj((2, 2), (mm, 1 - mm)))
    m += (p * p / 2.0) * np.eye(8)
    return m / (4.0 + 4.0 * p - p * p)


def ghz_ad_success_state(g):
    dims = (2, 2, 2)
    m = np.zeros((8, 8), dtype=complex)
    for mm in range(2):
        nn = 1 - mm
        m += (1.0 - g) * ketbra(dims, (mm,) * 3, (nn,) * 3)
        m += (1.0 + (-1) ** mm * g) ** 2 * proj(dims, (mm,) * 3)
        m += g * (1.0 - g) * proj(dims, (1, mm, (mm + 1) % 2))
    m += g * g * proj(dims, (1, 0, 0))
    return m / (2.0 + 2.0 * g + g * g)


# ---------------------------------------------------------------------------
# d-level specializations (depolarizing and amplitude damping).


def qudit_depol_final_state(d, p):
    """Block form after the inverse CNOT under depolarizing noise."""
    dims = (d, d, d)
    chi0_p0 = np.kron(ghz_matrix(2, d), proj((d,), (0,)))
    omega2 = chi0_p0 / (2 * d - 1)
    for j in range(d):
        for l in range(d):
            if j != l:
                omega2 += proj(dims, (j, l, (j - l) % d)) / (d * (2 * d - 1))
                omega2 += proj(dims, (j, j, (l - j) % d)) / (d * (2 * d - 1))
    extra = np.zeros((d**3, d**3), dtype=complex)
    for j in range(d):
        for k in range(d):
            extra += (d - 1) * proj(dims, (j, j, (k - j) % d))
    extra += np.eye(d**3)
    return (1.0 - p) * omega2 + (p / (d * d * (2 * d - 1))) * extra


def qudit_depol_success_pair(d, p):
    dims = (d, d)
    m = d * (1.0 - p) * ghz_matrix(2, d)
    for j in range(d):
        m += p * proj(dims, (j, j))
        for l in range(d):
            if j != l:
                m += (p / d) * proj(dims, (j, l))
    return m / (d + p * (d - 1.0))


def qudit_ad_success_pair(d, g):
    dims = (d, d)
    m = (1.0 + g * (d - 1.0)) * proj(dims, (0, 0))
    for mm in range(1, d):
        for nn in range(1, d):
            m += (1.0 - g) * ketbra(dims, (mm, mm), (nn, nn))
    for mm in range(1, d):
        m += g * proj(dims, (mm, 0))
        m += np.sqrt(1.0 - g) * (
            ketbra(dims, (0, 0), (mm, mm)) + ketbra(dims, (mm, mm), (0, 0))
        )
    return m / (d + (d - 1.0) * g)


def cnot_gather(m, dims, control, target, inverse=False):
    """The stack ``m`` conjugated by the generalized CNOT |.., c, .., t, ..> ->
    |.., c, .., t + c mod d, ..> (t - c with ``inverse``), as a gather of the
    dense matrices: entry (x, y) of the result is entry (s(x), s(y)) of ``m``,
    where s undoes the gate's move of the target digit."""
    digits = np.indices(dims).reshape(len(dims), -1)
    source = digits.copy()
    sign = 1 if inverse else -1
    source[target] = (digits[target] + sign * digits[control]) % dims[target]
    s = np.ravel_multi_index(tuple(source), dims)
    return m[..., s[:, None], s]


# ---------------------------------------------------------------------------
# Channel actions written out from their definitions, and the transfer tensor
# T[i, j, k, l] = E(|k><l|)[i, j] probed one basis operator at a time.


def canonical_action(l1, l2, l3, t3, x):
    """Bloch action r -> (l1 rx, l2 ry, l3 rz + t3), extended linearly from
    x = (tr(x) I + rx sx + ry sy + rz sz) / 2 with r_m = tr(s_m x)."""
    x0 = np.trace(x)
    rx, ry, rz = (np.trace(s @ x) for s in (SX, SY, SZ))
    return 0.5 * (x0 * I2 + l1 * rx * SX + l2 * ry * SY + (l3 * rz + t3 * x0) * SZ)


def kraus_action(ops, x):
    """Operator sum sum_A A x A^dagger."""
    return sum(a @ x @ a.conj().T for a in ops)


def depolarizing_action(d, p, x):
    """(1 - p) x + (p / d) tr(x) I."""
    return (1.0 - p) * x + (p / d) * np.trace(x) * np.eye(d)


def weyl_operators(d):
    """The d^2 Weyl operators X^a Z^b (shift X|k> = |k+1>, clock Z|k> = w^k |k>),
    ordered by a, then b."""
    shift = np.roll(np.eye(d), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    return [
        np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
        for a in range(d)
        for b in range(d)
    ]


def depolarizing_kraus(d, p):
    """Kraus set of the depolarizing map: sqrt(1 - p) I and (sqrt(p) / d) X^a Z^b
    over all d^2 Weyl operators, whose twirl sends x to tr(x) I / d."""
    return [np.sqrt(1.0 - p) * np.eye(d)] + [np.sqrt(p) / d * w for w in weyl_operators(d)]


def weyl_diagonal_kraus(weights):
    """Kraus set {sqrt(p_ab) X^a Z^b} of the Weyl-diagonal channel whose d x d
    probabilities p_ab are ``weights``."""
    d = len(weights)
    return [np.sqrt(p) * w for p, w in zip(np.ravel(weights), weyl_operators(d))]


def stinespring_kraus(seed, d, count=2):
    """Kraus operators of a random channel: the blocks of a random isometry."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((count * d, d)) + 1j * rng.standard_normal((count * d, d))
    isometry = np.linalg.qr(g)[0]
    return [isometry[m * d : (m + 1) * d] for m in range(count)]


def z_twirl(ops, d):
    """Kraus operators of the channel averaged over conjugation by Z^s: it
    keeps only the transfer entries with i - j = k - l (mod d)."""
    phases = np.exp(2j * np.pi * np.arange(d) / d)
    return [
        (phases**s)[:, None] * a * (phases**-s)[None, :] / np.sqrt(d)
        for a in ops
        for s in range(d)
    ]


def transfer_from_action(action, d):
    t4 = np.empty((d, d, d, d), dtype=complex)
    for k in range(d):
        for l in range(d):
            t4[:, :, k, l] = action(ketbra((d,), (k,), (l,)))
    return t4


def noise_channel(kind, d, x):
    """The one-parameter channel (depolarizing or amplitude damping) at ``x``,
    from the package's one factory keyed by kind."""
    from edss.channels import CHANNEL_PARAMS, channel_from_config

    return channel_from_config({"kind": kind, "d": d, CHANNEL_PARAMS[kind][0]: x})


# ---------------------------------------------------------------------------
# Channel readers from their definitions, through a channel's action alone.


def choi_matrix(ch):
    """sum_kl |k><l| (x) E(|k><l|): PSD iff the map is CP."""
    d = ch.dim
    return sum(
        np.kron(ketbra((d,), (k,), (l,)), ch.apply_matrix(ketbra((d,), (k,), (l,))))
        for k in range(d)
        for l in range(d)
    )


def bloch_affine(ch):
    """Affine Bloch representation (M, t) of a qubit channel: E((I + r.s) / 2) is
    (I + (M r + t).s) / 2, so M[m, n] = tr(s_m E(s_n / 2)) and t_m = tr(s_m E(I / 2))."""
    paulis = (SX, SY, SZ)

    def bloch_vector(x):
        return np.array([np.trace(s @ ch.apply_matrix(x)).real for s in paulis])

    return np.array([bloch_vector(s / 2) for s in paulis]).T, bloch_vector(I2 / 2)


def is_extreme_point(ch, tol=1e-9):
    """Whether a canonical qubit channel (Bloch matrix diag(l1, l2, l3), shift
    (0, 0, t3)) is an extreme point of the CPT maps (Ruskai-Szarek-Werner):
    (l1 +- l2)^2 = (1 +- l3)^2 - t3^2 for both signs. Other channels raise."""
    m, t = bloch_affine(ch)
    if np.max(np.abs(m - np.diag(np.diag(m)))) > tol or np.max(np.abs(t[:2])) > tol:
        raise TypeError("extreme-point test applies to canonical channels")
    (l1, l2, l3), t3 = np.diag(m), t[2]
    plus = (l1 + l2) ** 2 - ((1 + l3) ** 2 - t3**2)
    minus = (l1 - l2) ** 2 - ((1 - l3) ** 2 - t3**2)
    return abs(plus) <= tol and abs(minus) <= tol


def unital_cp_condition(l1, l2, l3, tol=0.0):
    """The closed-form CP test of unital canonical channels: |l1 +- l2| <= |1 +- l3|."""
    return abs(l1 + l2) <= abs(1 + l3) + tol and abs(l1 - l2) <= abs(1 - l3) + tol


# ---------------------------------------------------------------------------
# Channel admission one channel and one point at a time, as the driver did it
# before it checked a batch with stacked kernels.


def cpt_report_fields(t4, tol=1e-9):
    """(is_cpt, min Choi eigenvalue, trace defect, Choi hermiticity defect) of
    one transfer tensor: a Choi matrix that is non-finite or non-Hermitian
    fails with a nan eigenvalue, before the eigensolver."""
    d = t4.shape[0]
    choi = np.ascontiguousarray(t4.transpose(2, 0, 3, 1).reshape(d * d, d * d))
    herm_err = float(np.max(np.abs(choi - choi.conj().T)))
    tp_err = float(np.max(np.abs(np.einsum("kili->kl", choi.reshape(d, d, d, d)) - np.eye(d))))
    if herm_err > tol or not np.isfinite(choi).all():
        return False, float("nan"), tp_err, herm_err
    min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))))
    return min_eig >= -tol and tp_err <= tol, min_eig, tp_err, herm_err


def off_phase_mask(d):
    """Mask of the transfer-tensor entries with i - j != k - l (mod d)."""
    i, j, k, l = np.indices((d,) * 4, sparse=True)
    return (i - j - k + l) % d != 0


def phase_covariant(t4, atol=1e-10):
    """Whether T[i, j, k, l] = 0, within ``atol``, unless i - j = k - l (mod d)."""
    off = t4[off_phase_mask(t4.shape[0])]
    return float(np.max(np.abs(off), initial=0.0)) <= atol


def admit_point(roles, channels, d):
    """Warnings of one point's channels, each role checked in order; a channel
    used in several roles is tested once. A refused channel raises."""
    covariant = {}
    warnings = []
    for role, ch in zip(roles, channels):
        if ch.dim != d:
            raise ValueError(f"{role} has dimension {ch.dim}; the register needs {d}")
        if ch not in covariant:
            ok, min_eig, tp_err, _ = cpt_report_fields(ch.transfer_tensor())
            if not ok:
                raise ValueError(
                    f"{role} is not a CPT map (min Choi eigenvalue "
                    f"{min_eig:.3e}, trace defect {tp_err:.3e})"
                )
            covariant[ch] = phase_covariant(ch.transfer_tensor())
        if covariant[ch]:
            continue
        if d > 2:
            raise ValueError(f"{role} is not phase-covariant, which d > 2 requires")
        warnings.append(
            f"{role} is not Bloch-diagonal or otherwise phase-covariant; identity chains "
            "are not guaranteed"
        )
    return warnings


def admit_batch(roles, batch, d, labels=()):
    """``admit_point`` over the points in order; a refusal is prefixed with
    ``labels[b]`` when labels are given."""
    admitted = []
    for b, channels in enumerate(batch):
        try:
            admitted.append(admit_point(roles, channels, d))
        except ValueError as exc:
            if not labels:
                raise
            raise ValueError(f"{labels[b]}: {exc}") from exc
    return admitted


def same_channels(channels):
    """Whether every channel's transfer tensor is the first one's within 1e-12."""
    first = channels[0].transfer_tensor()
    return all(
        np.allclose(first, ch.transfer_tensor(), atol=1e-12, rtol=0.0) for ch in channels[1:]
    )


def evolve_batch(spec, batch, dims):
    """``protocols._evolve`` of the channel tuples ``batch``, unadmitted: the
    distinct channels' tensors stacked, and per point and role the index of
    its channel."""
    from edss.protocols import _evolve

    distinct = list(dict.fromkeys(ch for channels in batch for ch in channels))
    index = np.array([[distinct.index(ch) for ch in channels] for channels in batch])
    return _evolve(spec, np.array([ch.transfer_tensor() for ch in distinct]), index, dims)


def table_rows(table):
    """The rows of a sweep table (column -> one value per point), as dicts of floats."""
    columns = (np.asarray(column).tolist() for column in table.values())
    return [dict(zip(table, cells)) for cells in zip(*columns)]


def format_cell(x):
    """A CSV cell as rows were written one cell at a time: 12 significant digits, -0 as 0."""
    return "0" if x == 0.0 else f"{float(x):.12g}"


def x_to_px(x, lo, hi):
    """The chart pixel of one x value, as points were placed one at a time."""
    from edss.svgchart import _plot_box

    left, _, right, _ = _plot_box()
    if hi == lo:
        return 0.5 * (left + right)
    return left + (x - lo) / (hi - lo) * (right - left)


def y_to_px(y, lo, hi):
    """The chart pixel of one y value, as points were placed one at a time."""
    from edss.svgchart import _plot_box

    _, top, _, bottom = _plot_box()
    if hi == lo:
        return 0.5 * (top + bottom)
    return bottom - (y - lo) / (hi - lo) * (bottom - top)


def fresh_plan_cache(monkeypatch):
    """Install an empty plan cache (``edss.tensor._PLANS``) with its byte count at
    zero; the test's end restores the package's cache and its count together."""
    import edss.tensor

    monkeypatch.setattr(edss.tensor, "_PLANS", {})
    monkeypatch.setattr(edss.tensor, "_held", 0)


def sweep_columns(spec):
    """The CSV header of ``spec``, from its table entry alone: the swept parameter,
    the entry's columns, the exchange and chain maxima, ``critical_noise`` where
    the spec has a critical formula, then ``ref_<first column>`` per closed form."""
    from edss.protocols import SPECS
    from edss.sweep import _closed_forms

    entry = SPECS[spec.protocol, spec.mode]
    cols = [spec.param, *(column for column, _ in entry.columns)]
    cols += ["exchange_negativity_max", "chain_max_deviation"]
    if entry.critical_formula(spec.channel) is not None:
        cols.append("critical_noise")
    return cols + [f"ref_{columns[0]}" for columns in _closed_forms(spec).values()]


def row_by_row_outputs(spec, table):
    """What ``run_sweep`` writes for ``spec`` and its full table (``critical_noise``
    included), rebuilt one row at a time the way rows were written before the
    columnar output: the CSV text, the SVG text (None without ``svg_path``) and
    the check failure lines, one ``row_deviations`` call per row."""
    import csv
    import io

    from edss.svgchart import render_line_chart
    from edss.sweep import _closed_forms, check_atol

    columns = sweep_columns(spec)
    rows = table_rows(table)
    failures = []
    for row in rows:
        at = f"{spec.param}={format_cell(row[spec.param])}"
        devs = {
            "identity": row["chain_max_deviation"],
            "separability": row["exchange_negativity_max"],
        }
        for fid, cols in _closed_forms(spec).items():
            ref = row[f"ref_{cols[0]}"]
            devs[fid] = max(abs(row[c] - ref) for c in cols)
        for check, what in (("identity", "identity chain deviation"),
                            ("separability", "exchange negativity")):
            dev = devs.pop(check)
            if check in spec.checks and not dev <= check_atol(check):
                failures.append(f"{at}: {what} {dev:.3e}")
        for fid, dev in devs.items():
            if "closed_form" in spec.checks and not dev <= check_atol(fid):
                failures.append(f"{at}: {fid} deviates from closed form by {dev:.3e}")
    cells = [[format_cell(row[c]) for c in columns] for row in rows]
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(cells)
    svg = None
    if spec.svg_path is not None:
        xs, *ys = ([float(cell) for cell in column] for column in zip(*cells))
        title = f"{spec.protocol} / {spec.channel} ({spec.mode})"
        svg = render_line_chart(xs, list(zip(columns[1:], ys)), title, x_label=spec.param)
        # every polyline point by the one-point transforms, on the ranges taken
        # with the builtin min and max over the printed values
        all_y = [y for series in ys for y in series]
        y_lo, y_hi = min(0.0, min(all_y)), max(all_y)
        y_hi = (y_lo + 1.0 if y_hi <= y_lo else y_hi) * 1.05
        points = iter([
            " ".join(
                f"{x_to_px(x, min(xs), max(xs)):.3f},{y_to_px(y, y_lo, y_hi):.3f}"
                for x, y in zip(xs, series)
            )
            for series in ys
        ])
        svg = re.sub(r'points="[^"]*"', lambda _: f'points="{next(points)}"', svg)
    return text.getvalue(), svg, failures
