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

An exact file holds (N, C, K) curvature roots and the Cholesky factor of
the N*K square Q they whiten, with K = C - 1 for a categorical fit. Older
exact files hold (N, C, C) roots with an N*C factor; they load and
predict as they are, so the format version is unchanged. Files of the
retired weight-space kind ``lla-weight`` fail at load as an unknown kind.
"""

import json
import math
import struct
from dataclasses import fields

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
    MapState,
)
from .nn import MlpArchitecture, MlpNetwork
from .valla import VallaState

MAGIC = b"LAGB"
VERSION = 1
STATE_KINDS = {
    cls.KIND: cls
    for cls in (MapState, LlaExactState, LlaDiagState, LlaLastLayerState, VallaState, EllaState)
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
            fh.write(arr.data)  # through the buffer: no copy of the payload


def read_container(path):
    """(kind, meta, arrays) of a container file; any malformed byte raises FormatError."""
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

    def take_text(size_fmt, what):
        nonlocal off
        (size,) = take(size_fmt)
        if off + size > len(blob):
            raise FormatError(f"state file truncated inside the {what}")
        raw = blob[off : off + size]
        off += size
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"the {what} is not valid utf-8") from None

    (version,) = take("<I")
    if version != VERSION:
        raise VersionMismatch(f"unsupported state version {version}")
    kind = take_text("<H", "kind")
    try:
        meta = json.loads(take_text("<I", "meta"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"the meta is not valid JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise FormatError("the meta must be a JSON object")
    (count,) = take("<I")
    arrays = {}
    for _ in range(count):
        name = take_text("<H", "array name")
        (ndim,) = take("<B")
        shape = tuple(take("<Q")[0] for _ in range(ndim))
        n_items = math.prod(shape)
        end = off + 8 * n_items
        if end > len(blob):
            raise FormatError(f"state file truncated inside array {name!r}")
        try:
            arrays[name] = np.frombuffer(blob, dtype="<f8", count=n_items, offset=off).reshape(shape).copy()
        except ValueError:  # an empty array whose other dimensions numpy cannot hold
            raise FormatError(f"array {name!r} has an impossible shape {shape}") from None
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


def _normalization_from_arrays(arrays, input_dim):
    """The stored Normalization, or None when the file holds none.

    A file holds all four ``norm_*`` arrays or none of them. Each is 1-D
    and finite and each std is > 0; the input pair has input_dim entries
    and the target pair one nonempty length. Anything else raises
    FormatError naming the array.
    """
    names = [f"norm_{f.name}" for f in fields(Normalization)]
    missing = [name for name in names if name not in arrays]
    if len(missing) == len(names):
        return None
    if missing:
        raise FormatError(f"state file lacks {missing[0]!r}: it holds some norm_* arrays but not all four")
    target_mean = arrays["norm_target_mean"]
    target_dim = target_mean.shape[0] if target_mean.ndim == 1 else 0
    for name in names:
        value = arrays[name]
        dim = input_dim if name.startswith("norm_input") else target_dim
        if dim == 0 or value.shape != (dim,):
            raise FormatError(f"{name} must be 1-D of length {dim or '>= 1'}, got shape {value.shape}")
        if not np.isfinite(value).all():
            raise FormatError(f"{name} holds NaN or Inf")
        if name.endswith("_std") and np.any(value <= 0):
            raise FormatError(f"{name} must be > 0")
    return Normalization(*(arrays[name] for name in names))


def save_state(path, state, normalization=None):
    """Serialize any fitted posterior state with its network embedded."""
    if type(state) not in STATE_KINDS.values():
        raise FormatError(f"cannot serialize state of type {type(state).__name__}")
    meta, arrays = _net_payload(state.ctx.net)
    meta["likelihood"] = {"kind": state.likelihood.kind, "noise_variance": state.likelihood.noise_variance}
    meta["log_prior_variance"] = float(state.ctx.log_prior_variance)
    if normalization is not None:
        arrays.update((f"norm_{f.name}", getattr(normalization, f.name)) for f in fields(Normalization))
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
        lik = meta["likelihood"]
        likelihood = LikelihoodModel(kind=lik["kind"], noise_variance=lik["noise_variance"])
        ctx = KernelContext(net=net, log_prior_variance=meta["log_prior_variance"])
        state = STATE_KINDS[kind].from_payload(ctx, likelihood, meta, arrays)
    except KeyError as exc:
        raise FormatError(f"{kind} state file lacks {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{kind} state file holds a malformed value: {exc}") from None
    return state, _normalization_from_arrays(arrays, net.arch.input_dim)
