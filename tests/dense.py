"""Dense reference matrices for the matrix-free Fock oracle, at tiny sizes.

Built without ``twistkit.fock``: single-oscillator matrices joined with
``np.kron``, or explicit loops over the occupations.  The basis order is
the C order of the state tensors: slot 2k is the + charge of mode k, slot
2k + 1 its - charge, the first slot most significant.  The symmetries are
built from their raw phases and pairings, never from the slot action of
``twistkit.spectrum``, and so are the induced matrices on the doubled
coefficient space.  The basis-sum trace at the end is the exception: it
reads the slot action's ``source`` and ``phases`` (not its ``cycles``), to
check the factorization over cycles at sizes no dense matrix reaches.
"""

import math

import numpy as np


def creation_matrix(cutoff):
    """Truncated oscillator creation matrix; the top level is annihilated."""
    m = np.zeros((cutoff + 1, cutoff + 1))
    for k in range(cutoff):
        m[k + 1, k] = math.sqrt(k + 1)
    return m


def embed(n_slots, cutoff, slot, local):
    """A single-oscillator matrix at one slot, the identity at the others."""
    out = np.eye(1)
    for j in range(n_slots):
        out = np.kron(out, local if j == slot else np.eye(cutoff + 1))
    return out


def slot_creation(n_slots, cutoff, slot):
    return embed(n_slots, cutoff, slot, creation_matrix(cutoff))


def hamiltonian(omegas, cutoff):
    levels = np.diag(np.arange(cutoff + 1.0))
    n_slots = 2 * len(omegas)
    h = np.zeros(((cutoff + 1) ** n_slots,) * 2)
    for slot in range(n_slots):
        h += omegas[slot // 2] * embed(n_slots, cutoff, slot, levels)
    return h


def unitary_symmetry(phases, cutoff):
    """U_S: rho**n on the + slot of each mode, conj(rho)**n on its - slot."""
    out = np.eye(1)
    for rho in phases:
        for p in (rho, np.conj(rho)):
            out = np.kron(out, np.diag(p ** np.arange(cutoff + 1)))
    return out


def antiunitary_symmetry(partners, phases, cutoff):
    """U_V from its rule on basis states: (n+_k, n-_k) move to the slots
    (n-, n+) of mode pi(k), with phase eta_{pi(k)}**n+_k conj(eta_{pi(k)})**n-_k."""
    m = len(phases)
    shape = (cutoff + 1,) * (2 * m)
    out = np.zeros((int(np.prod(shape)),) * 2, dtype=complex)
    for occ in np.ndindex(*shape):
        target, phase = [0] * (2 * m), 1.0 + 0.0j
        for k in range(m):
            j = partners[k]
            target[2 * j], target[2 * j + 1] = occ[2 * k + 1], occ[2 * k]
            phase *= phases[j] ** occ[2 * k] * np.conj(phases[j]) ** occ[2 * k + 1]
        out[np.ravel_multi_index(target, shape), np.ravel_multi_index(occ, shape)] = phase
    return out


def induced_unitary(phases):
    """Induced matrix of U_S on the doubled space: diag(conj(rho); rho)."""
    return np.diag(np.concatenate([np.conj(phases), phases]))


def induced_antiunitary(partners, phases):
    """Induced matrix of U_V on the doubled space: e_k goes to
    eta_k e_{M+pi(k)}, and e_{M+pi(k)} to conj(eta_{pi(k)}) e_k."""
    m = len(phases)
    out = np.zeros((2 * m, 2 * m), dtype=complex)
    for k in range(m):
        j = partners[k]
        out[m + j, k] = phases[k]
        out[k, m + j] = np.conj(phases[j])
    return out


def matrix_of(shape, operator):
    """Dense matrix of a tensor operator, one basis state per column."""
    dim = int(np.prod(shape))
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        e = np.zeros(dim, dtype=complex)
        e[i] = 1.0
        out[:, i] = np.asarray(operator(e.reshape(shape))).reshape(-1)
    return out


def enumerated_trace(spectrum, sym, beta, cutoff):
    """Truncated Tr(U exp(-beta H)) summed over the basis.

    U sends the basis state n to a phase times the state whose slot t holds
    n[source[t]], so its diagonal is the phase on the states constant on
    every cycle of ``source``.  einsum lists exactly those states' terms by
    giving each cycle one index, its first slot, and np.sum adds them
    pairwise (einsum's own summation of many operands rounds up to ~100
    eps of the sum of moduli).
    """
    action = sym.action
    first = list(range(len(action.source)))
    for start in range(len(first)):
        if first[start] == start:  # the smallest slot of its cycle
            t = action.source[start]
            while t != start:
                first[t], t = start, action.source[t]
    levels = np.arange(cutoff + 1)
    operands = []
    for t, w in enumerate(np.repeat(np.asarray(spectrum.omegas, dtype=float), 2)):
        operands += [action.phases[t] ** levels * np.exp(-beta * w * levels), [first[t]]]
    return complex(np.einsum(*operands, sorted(set(first))).sum()) if operands else 1.0 + 0.0j


def trace_rounding(spectrum, beta, cutoff):
    """Allowed rounding between two evaluations of a truncated twisted trace.

    Each term of the basis sum has modulus at most its untwisted value, so
    both evaluations round by a small multiple of eps times the sum of
    those moduli, the untwisted truncated trace prod_k S_N(x_k)^2: the
    factor tables and products of up to 2M = 8 factors add a few eps each,
    and a pairwise sum of up to 5^8 terms log2(5^8) < 19 eps.  Measured:
    under 5 eps on 3000 random configurations.
    """
    untwisted = math.prod(
        sum(math.exp(-beta * w * n) for n in range(cutoff + 1)) ** 2 for w in spectrum.omegas
    )
    return 64 * np.finfo(float).eps * untwisted
