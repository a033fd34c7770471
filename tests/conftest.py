import math

import numpy as np
import pytest

from dpvfl import protocol


def central_difference(f, x, step=1e-6):
    """Central finite-difference gradient of scalar f over the array x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        bumped = x.copy()
        bumped[idx] += step
        hi = f(bumped)
        bumped[idx] -= 2 * step
        lo = f(bumped)
        grad[idx] = (hi - lo) / (2 * step)
        it.iternext()
    return grad


def relative_error(analytic, numeric):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-8)
    return float(np.abs(analytic - numeric).max() / scale)


def erf_inv_bisect(p, tol=1e-13):
    """Independent oracle: invert math.erf by bisection."""
    lo, hi = -10.0, 10.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if math.erf(mid) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return (lo + hi) / 2


@pytest.fixture
def recorded_channels(monkeypatch) -> list:
    """Every ``MessageChannel`` that ``dpvfl.protocol`` code builds from here on,
    in creation order (``measure_stage_times`` imports the name at call time)."""
    channels = []

    class RecordingChannel(protocol.MessageChannel):
        def __init__(self):
            super().__init__()
            channels.append(self)

    monkeypatch.setattr(protocol, "MessageChannel", RecordingChannel)
    return channels


def assert_one_round_per_channel(channels, party_ids):
    """Channel ``i`` carried round ``i`` only: one embedding up and one
    gradient down per passive party, none of them left pending."""
    for round_index, channel in enumerate(channels):
        sent = sorted((m.kind, m.party_id, m.batch_index) for m in channel.log)
        assert sent == sorted((kind, pid, round_index) for pid in party_ids
                              for kind in (protocol.EMBEDDING_UP, protocol.GRADIENT_DOWN))
        assert channel._pending == {}
