"""Versioned binary container for fitted posterior states.

Layout, all integers little-endian:

    magic   4 bytes  b"LAGB"
    version u32      currently 1
    kind    u16 length + utf-8 string (state type tag)
    meta    u32 length + utf-8 JSON (scalars: variances, alpha, ...)
    count   u32      number of named float64 arrays
    arrays  repeated: u16 name length + name, u8 ndim, u64 per dim,
            then the row-major float64 payload

The network parameters, likelihood, prior variance, and any input/target
normalization statistics are embedded, so a state file is sufficient on
its own to produce predictions. The rest of the payload belongs to the
state's kind: ``STATE_KINDS`` maps each kind tag to its state class, whose
``payload`` and ``from_payload`` (see ``lla.PosteriorState``) write and
read it.

A VaLLA file keeps its fitted variances in the shared prior-variance key
and likelihood record, so its own meta is ``alpha`` alone. Older ones also
hold the fitted noise under ``log_noise_variance`` and load with it.
"""

import json
import struct

import numpy as np

from .data import Normalization
from .ella import EllaState
from .errors import FormatError, VersionMismatch
from .kernel import KernelContext
from .lla import (
    LikelihoodModel,
    LlaDiagState,
    LlaExactState,
    LlaLastLayerState,
    LlaWeightState,
    MapState,
)
from .nn import MlpArchitecture, MlpNetwork
from .valla import VallaState

MAGIC = b"LAGB"
VERSION = 1
STATE_KINDS = {
    cls.KIND: cls
    for cls in (MapState, LlaExactState, LlaWeightState, LlaDiagState, LlaLastLayerState, VallaState, EllaState)
}


def _write_string(fh, value, size_fmt):
    raw = value.encode("utf-8")
    fh.write(struct.pack(size_fmt, len(raw)))
    fh.write(raw)


def write_container(path, kind, meta, arrays):
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        _write_string(fh, kind, "<H")
        _write_string(fh, json.dumps(meta, sort_keys=True), "<I")
        fh.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr, dtype="<f8")
            _write_string(fh, name, "<H")
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<Q", dim))
            fh.write(arr.tobytes())


def read_container(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise FormatError("bad magic bytes, not a fitted-state file")
    off = 4

    def take(fmt):
        nonlocal off
        size = struct.calcsize(fmt)
        if off + size > len(blob):
            raise FormatError("state file truncated")
        out = struct.unpack_from(fmt, blob, off)
        off += size
        return out

    (version,) = take("<I")
    if version != VERSION:
        raise VersionMismatch(f"unsupported state version {version}")
    (kind_len,) = take("<H")
    kind = blob[off : off + kind_len].decode("utf-8")
    off += kind_len
    (meta_len,) = take("<I")
    meta = json.loads(blob[off : off + meta_len].decode("utf-8"))
    off += meta_len
    (count,) = take("<I")
    arrays = {}
    for _ in range(count):
        (name_len,) = take("<H")
        name = blob[off : off + name_len].decode("utf-8")
        off += name_len
        (ndim,) = take("<B")
        shape = tuple(take("<Q")[0] for _ in range(ndim))
        n_items = int(np.prod(shape)) if shape else 1
        end = off + 8 * n_items
        if end > len(blob):
            raise FormatError(f"state file truncated inside array {name!r}")
        arrays[name] = np.frombuffer(blob, dtype="<f8", count=n_items, offset=off).reshape(shape).copy()
        off = end
    if off != len(blob):
        raise FormatError("trailing bytes after arrays")
    return kind, meta, arrays


def _net_payload(net):
    meta = {
        "arch": {
            "input_dim": net.arch.input_dim,
            "hidden_dims": list(net.arch.hidden_dims),
            "output_dim": net.arch.output_dim,
            "activation": net.arch.activation,
        }
    }
    arrays = {}
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        arrays[f"net_w{l}"] = w
        arrays[f"net_b{l}"] = b
    return meta, arrays


def _net_from_payload(meta, arrays):
    spec = meta["arch"]
    arch = MlpArchitecture(
        input_dim=spec["input_dim"],
        hidden_dims=tuple(spec["hidden_dims"]),
        output_dim=spec["output_dim"],
        activation=spec["activation"],
    )
    weights = tuple(arrays[f"net_w{l}"] for l in range(arch.depth))
    biases = tuple(arrays[f"net_b{l}"] for l in range(arch.depth))
    return MlpNetwork(arch=arch, weights=weights, biases=biases)


def _likelihood_payload(lik):
    return {"kind": lik.kind, "noise_variance": lik.noise_variance}


def _likelihood_from_payload(meta):
    return LikelihoodModel(kind=meta["kind"], noise_variance=meta["noise_variance"])


def _normalization_arrays(normalization):
    if normalization is None:
        return {}
    return {
        "norm_input_mean": normalization.input_mean,
        "norm_input_std": normalization.input_std,
        "norm_target_mean": normalization.target_mean,
        "norm_target_std": normalization.target_std,
    }


def _normalization_from_arrays(arrays):
    if "norm_input_mean" not in arrays:
        return None
    return Normalization(
        input_mean=arrays["norm_input_mean"],
        input_std=arrays["norm_input_std"],
        target_mean=arrays["norm_target_mean"],
        target_std=arrays["norm_target_std"],
    )


def save_state(path, state, normalization=None):
    """Serialize any fitted posterior state with its network embedded."""
    if type(state) not in STATE_KINDS.values():
        raise FormatError(f"cannot serialize state of type {type(state).__name__}")
    meta, arrays = _net_payload(state.ctx.net)
    meta["likelihood"] = _likelihood_payload(state.likelihood)
    meta["log_prior_variance"] = float(state.ctx.log_prior_variance)
    arrays.update(_normalization_arrays(normalization))
    kind_meta, kind_arrays = state.payload()
    meta.update(kind_meta)
    arrays.update(kind_arrays)
    write_container(path, state.KIND, meta, arrays)


def load_state(path):
    """Load a fitted state; returns (state, normalization)."""
    kind, meta, arrays = read_container(path)
    if kind not in STATE_KINDS:
        raise FormatError(f"unknown state kind {kind!r}")
    try:
        net = _net_from_payload(meta, arrays)
        likelihood = _likelihood_from_payload(meta["likelihood"])
        ctx = KernelContext(net=net, log_prior_variance=meta["log_prior_variance"])
        state = STATE_KINDS[kind].from_payload(ctx, likelihood, meta, arrays)
    except KeyError as exc:
        raise FormatError(f"{kind} state file lacks {exc.args[0]!r}") from None
    return state, _normalization_from_arrays(arrays)
