import numpy as np

from champagne.streams import derive_seed, mix64, stream_keys, uniforms_at

# Scalar oracle of the vectorized streams: walk w's stream key under seed,
# and the uniform at its counter t, in plain Python integers.
_U64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def stream_key(seed: int, walk_index: int) -> int:
    return mix64((seed & _U64) ^ mix64(((walk_index + 1) * _GOLDEN) & _U64))


def uniform_at(seed: int, walk_index: int, t: int) -> float:
    v = mix64((stream_key(seed, walk_index) + (t + 1) * _GOLDEN) & _U64)
    return (v >> 11) * 2.0 ** -53


class WalkStream:
    """One walk's stream read in order: a cursor over uniform_at."""

    def __init__(self, seed: int, walk_index: int = 0):
        self.seed = seed
        self.walk_index = walk_index
        self.cursor = 0

    def uniform_at(self, t: int) -> float:
        return uniform_at(self.seed, self.walk_index, t)

    def next_uniform(self) -> float:
        u = self.uniform_at(self.cursor)
        self.cursor += 1
        return u


def test_scalar_vector_parity():
    keys = stream_keys(42, np.arange(16))
    assert [int(k) for k in keys] == [stream_key(42, w) for w in range(16)]
    for w in range(16):
        for t in (0, 1, 2, 17, 1000):
            assert uniform_at(42, w, t) == uniforms_at(keys[w : w + 1], t)[0]


def test_per_element_counters():
    keys = stream_keys(9, np.arange(4))
    ts = np.array([0, 3, 5, 7], dtype=np.uint64)
    vals = uniforms_at(keys, ts)
    for i, t in enumerate(ts):
        assert vals[i] == uniform_at(9, i, int(t))


def test_walkstream_cursor_matches_counter():
    s = WalkStream(7, 3)
    key = stream_keys(7, [3])
    assert [s.next_uniform() for _ in range(5)] == [uniforms_at(key, t)[0] for t in range(5)]
    assert s.uniform_at(2) == uniform_at(7, 3, 2)  # pure access does not move the cursor
    assert s.cursor == 5


def test_streams_differ_across_walks_and_seeds():
    a = [uniform_at(1, 0, t) for t in range(64)]
    b = [uniform_at(1, 1, t) for t in range(64)]
    c = [uniform_at(2, 0, t) for t in range(64)]
    assert a != b
    assert a != c


def test_range_and_rough_uniformity():
    keys = stream_keys(123, np.arange(2000))
    u = np.concatenate([uniforms_at(keys, t) for t in range(10)])
    assert np.all((u >= 0.0) & (u < 1.0))
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(u.var() - 1.0 / 12.0) < 0.01


def test_derive_seed_is_stable_and_sensitive():
    assert derive_seed(5, "pilot", 0, 1) == derive_seed(5, "pilot", 0, 1)
    assert derive_seed(5, "pilot", 0, 1) != derive_seed(5, "pilot", 0, 2)
    assert derive_seed(5, "pilot") != derive_seed(5, "main")
