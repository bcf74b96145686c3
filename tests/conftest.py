from dataclasses import dataclass

import numpy as np
import pytest

import champagne as ch
from champagne import walker
from champagne.domains import transport_domain
from champagne.hyperbolic import mobius_apply


@pytest.fixture(scope="session")
def small_lattice():
    return ch.generate_ring_lattice(0.5, 1.0, 6, seed=13)


@pytest.fixture(scope="session")
def one_bubble_domain():
    # pseudo bubble D(0.5, 0.25): one-hole measure at 0 is exactly 0.5
    return ch.domain_from_pseudo([(0.5 + 0j, 0.25)])


@pytest.fixture(scope="session")
def two_bubble_domain():
    return ch.domain_from_pseudo([(0.5 + 0j, 0.25), (-0.4 + 0.3j, 0.2)])


@pytest.fixture(scope="session")
def empty_domain():
    return ch.domain_from_pseudo([], truncation_R=1.0)


def rand_disk_points(rng: np.random.Generator, n: int, max_mod: float = 0.95) -> np.ndarray:
    r = max_mod * np.sqrt(rng.uniform(0.0, 1.0, n))
    th = rng.uniform(0.0, 2.0 * np.pi, n)
    return r * np.exp(1j * th)


@dataclass(frozen=True)
class ExitEvent:
    component: str          # "exterior" | "bubble" | "truncation_shell"
    bubble_index: int       # -1 unless component == "bubble"
    position: complex
    steps: int
    path_length: float


def wos_walk(domain, z0, epsilon, seed: int, walk_index: int = 0,
             max_steps: int = 1_000_000, r_out: float = 1.0) -> ExitEvent:
    """Run walk `walk_index` of the stream `seed` alone, through the
    kernel call estimate_measure makes, and return its exit event."""
    z0 = complex(z0)
    domain.require_interior(z0, "z0")
    eps = walker._resolve_epsilon(domain, epsilon)
    code, steps, path, ex, ey = walker._walk_chunk(
        domain, z0, eps, seed, walk_index, walk_index + 1, max_steps, r_out, None)
    c = int(code[0])
    if c == walker._CODE_EXTERIOR:
        component, b_idx = "exterior", -1
    elif c == walker._CODE_SHELL:
        component, b_idx = "truncation_shell", -1
    else:
        component, b_idx = "bubble", c - 1
    return ExitEvent(component=component, bubble_index=b_idx,
                     position=complex(ex[0], ey[0]), steps=int(steps[0]),
                     path_length=float(path[0]))


def mobius_transported_estimate(domain, z0, a, **kwargs):
    """Estimate after transporting domain and start point by the
    automorphism swapping a and 0 (invariance checks)."""
    return ch.estimate_measure(transport_domain(domain, a), mobius_apply(a, z0), **kwargs)
