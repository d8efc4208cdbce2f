"""Does the compiled sweep sample the collapsed LDA posterior (Griffiths &
Steyvers, PNAS 2004)? The kernel's other tests compare it with a reference
that runs the same algorithm, so a slip both share, such as a cached term
not refreshed after a count changes, passes them. Here the chain is held to
the model itself, as Geweke ("Getting it right", JASA 2004) and Grosse &
Duvenaud ("Testing MCMC code", 2014) test samplers: a corpus of 3 documents
of 3, 3 and 2 tokens over V = 3 words at K = 2 has 2**8 = 256 assignments,
so its posterior is enumerated exactly (``exact_posterior`` in the oracles,
written from the model with ``math.lgamma``), and a seeded chain of sweeps
must visit the assignments at those frequencies.

The priors are not init_state's. At its alpha = 2.5 and beta = 0.01 the
chain's total variation over three seeds (0.011-0.017) overlapped that of a
sweep given beta for V * beta (0.008-0.027); at the priors here that sweep
reads 0.16."""

import array
import collections
import itertools

import pytest

from godspell import _sweep
from godspell.topics import gibbs_sweep, init_state, log_likelihood
from oracles import exact_posterior, lda_log_joint

DOCS = [[0, 1, 2], [0, 0, 1], [2, 2]]
K, V = 2, 3
ALPHA = [0.3, 1.2]  # asymmetric, as optimize_alpha leaves it
BETA = 0.5
SWEEPS = 200_000
# Over seeds 0-39 the total variation of SWEEPS sweeps from the posterior was
# 0.0075-0.0109 (the median 0.0094). A den[t] or a doc[t] left stale after the
# token's removal gave 0.087-0.091 and 0.224-0.230 over seeds 0-4.
TV_BOUND = 0.02


@pytest.fixture(scope="module")
def compiled():
    return _sweep.kernel()


def tiny_state(seed: int):
    state = init_state(DOCS, K, V, seed)
    state.alpha = array.array("d", ALPHA)
    state.beta = BETA
    return state


def chain(state, sweeps: int) -> collections.Counter:
    """How often each z (as bytes) follows a sweep, over sweeps sweeps of the
    kernel's gibbs_sweep on state: the arguments ``_sweep.sweep`` passes, with
    the Mersenne Twister's state handed to the kernel once for all of them."""
    lib = _sweep.kernel()
    args = _sweep._arrays(state)
    alpha = _sweep.items("alpha", state.alpha, "d")
    scratch = array.array("d", [0.0]) * (3 * state.k)
    seen = collections.Counter()

    def run(mt):
        for _ in range(sweeps):
            lib.gibbs_sweep(mt, *args, _sweep._address(alpha), float(state.beta),
                            float(state.vocabulary_size * state.beta), _sweep._address(scratch))
            seen[state.z.tobytes()] += 1

    _sweep._draw(state.rng, run)
    return seen


def test_the_chain_is_the_sweep_of_topics(compiled):
    """chain's loop gives the assignments and the RNG state that
    topics.gibbs_sweep gives, sweep by sweep."""
    fast, slow = tiny_state(5), tiny_state(5)
    visited = []
    for _ in range(4):
        chain(fast, 1)
        gibbs_sweep(slow, DOCS)
        visited.append(slow.z.tolist())
        assert fast.z == slow.z and fast.rng.getstate() == slow.rng.getstate()
    assert len(set(map(tuple, visited))) > 1


def test_log_likelihood_is_the_log_joint(compiled):
    """log_likelihood, from the counts, and the model's log joint, from the
    assignments, differ by one constant over all 256 of them."""
    state = tiny_state(0)
    differences = []
    for z in itertools.product(range(K), repeat=sum(map(len, DOCS))):
        state.z = array.array("i", z)
        for name in ("n_dk", "n_kw", "n_k"):
            setattr(state, name, array.array("i", [0]) * len(getattr(state, name)))
        assert _sweep.count(state)
        differences.append(log_likelihood(state) - lda_log_joint(DOCS, list(z), ALPHA, BETA, V))
    assert len(differences) == 256
    assert max(differences) - min(differences) < 1e-9


def test_the_chain_samples_the_posterior(compiled):
    posterior = exact_posterior(DOCS, ALPHA, BETA, V)
    assert len(posterior) == 256
    seen = chain(tiny_state(0), SWEEPS)
    frequency = {tuple(array.array("i", z)): n / SWEEPS for z, n in seen.items()}
    assert set(frequency) <= set(posterior)
    tv = sum(abs(frequency.get(z, 0.0) - p) for z, p in posterior.items()) / 2
    assert tv < TV_BOUND
