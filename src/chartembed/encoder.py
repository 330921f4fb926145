"""Forward network from encoded chart inputs to the chart vector.

The rule ids, standing for the one-hot rule matrix, pass through three 1-d
convolution layers (kernel 3, same-length padding, batch normalization,
ReLU) and are flattened to a 128-dim structural feature; the semantic block
is flattened and concatenated; two fully connected layers (ReLU and dropout
between them) produce the final 540-dim embedding. Everything is float64
numpy.

Every persisted value lives in one float64 vector in checkpoint order, the
trainable arrays first and the batch-norm running statistics last; each
array is a named view of it, and gradients cover the trainable prefix. The
conv layers have no bias: each feeds batch norm, which cancels it, so it
would get no gradient.

Inference is a function of (inputs, params) up to the last bits: BLAS blocks
a GEMM by its rows, so which rows share one forward call can move an
embedding by up to about 1e-15 of its norm. Training-mode forwards
use batch statistics, record a trace for the backward pass, and update the
running batch-norm statistics, which they never read; a forward given the
previous step's trace writes the new one into its arrays.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import stat
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import grammar, semantics

CHECKPOINT_MAGIC = b"C2V2"
CHECKPOINT_FORMAT_VERSION = 2


class EncoderError(ValueError):
    """Raised for shape mismatches and non-finite parameters."""


class CheckpointError(ValueError):
    """Raised for unreadable, mismatched, or corrupt checkpoint files."""


# The paper's fixed architecture; every checkpoint header records it.
CONV_CHANNELS = (grammar.RULE_COUNT, 30, 15, 8)
KERNEL_SIZE = 3
OUTPUT_DIM = 540
BN_MOMENTUM = 0.1
BN_EPS = 1e-5
CONV_FLAT_DIM = grammar.MAX_SEQUENCE_LENGTH * CONV_CHANNELS[-1]


# A rule is (type, range as text, range test). Python counts a bool as an int; here it is neither.
_KINDS = {float: ("a number", numbers.Real), int: ("an integer", numbers.Integral),
          str: ("a string", str), bool: ("true or false", bool)}


def _shown(value) -> str:
    try:  # JSON text, or the repr of a value that has none (a numpy integer)
        return json.dumps(value)
    except (TypeError, ValueError):
        return repr(value)


def check_setting(name: str, value, rule: tuple, error: type):
    """`value` if it keeps `rule`, as a float for a float rule; else raises
    `error`, naming the setting, the fault and the value."""
    kind, allowed, in_range = rule
    noun, accepted = _KINDS[kind]
    if not isinstance(value, accepted) or (isinstance(value, bool) and kind is not bool):
        raise error(f"{name}: expected {noun}, got {_shown(value)}")
    try:
        finite = kind is not float or math.isfinite(value)
    except OverflowError:  # an int past the float range
        finite = False
    if not finite:
        raise error(f"{name}: expected a finite number, got {value}")
    if not in_range(value):
        raise error(f"{name}: must be {allowed}, got {_shown(value)}")
    return float(value) if kind is float else value


DROPOUT_RULE = (float, "in [0, 1)", lambda v: 0 <= v < 1)
_CONFIG_RULES = {
    "dropout": DROPOUT_RULE,
    "semantic_mode": (str, f"one of {list(semantics.SEMANTIC_MODES)}",
                      lambda v: v in semantics.SEMANTIC_MODES),
    **dict.fromkeys(("use_locations", "zero_schema", "zero_semantics", "use_fc"),
                    (bool, "true or false", lambda v: True)),
}


@dataclass(frozen=True)
class EncoderConfig:
    """The encoder settings that vary: dropout and the ablation switches."""

    dropout: float = 0.1
    semantic_mode: str = "interval-average"
    use_locations: bool = True
    zero_schema: bool = False
    zero_semantics: bool = False
    use_fc: bool = True

    def __post_init__(self):
        for name, rule in _CONFIG_RULES.items():  # dropout becomes a Python float
            value = check_setting(name, getattr(self, name), rule, EncoderError)
            object.__setattr__(self, name, value)

    @property
    def semantic_shape(self) -> tuple[int, int]:
        return semantics.semantic_shape(self.semantic_mode)

    @property
    def fc1_in(self) -> int:
        rows, cols = self.semantic_shape
        return CONV_FLAT_DIM + rows * cols

    @property
    def embedding_dim(self) -> int:
        return OUTPUT_DIM if self.use_fc else self.fc1_in


# The checkpoint header's config block, in its key order: the fixed value of
# each architecture key, or None for a field of EncoderConfig.
_CONFIG_BLOCK = {
    "conv_channels": CONV_CHANNELS,
    "kernel_size": KERNEL_SIZE,
    "sequence_length": grammar.MAX_SEQUENCE_LENGTH,
    "semantic_slots": semantics.SEMANTIC_SLOTS,
    "output_dim": OUTPUT_DIM,
    "dropout": None,
    "bn_momentum": BN_MOMENTUM,
    "bn_eps": BN_EPS,
    "semantic_mode": None,
    "use_locations": None,
    "zero_schema": None,
    "zero_semantics": None,
    "use_fc": None,
}


class EncoderParams:
    """The encoder's parameters: one float64 vector holding every persisted
    value in checkpoint order, `trainable` (its trainable prefix), and a
    named view of each array in it.

    Writing through a view writes `values`; running statistics are updated
    in place there by train-mode forwards.
    """

    def __init__(self, config: EncoderConfig, values: np.ndarray):
        self.config = config
        self.values = values
        self.views = param_views(config, values)
        self.trainable = values[: trainable_count(config)]


@dataclass
class ForwardTrace:
    """Per-layer activations and batch statistics cached for backprop.

    Conv activations are channels-last: one row per (chart, position). A
    train-mode forward given a trace writes the new one into the leading
    elements of its arrays' memory, so the arrays are views of it.
    """

    conv1_taps: np.ndarray  # (kernel, B*L) rows of conv1's lookup table
    conv_cols: list[np.ndarray]  # (B*L, kernel*Cin) im2col input of conv2, conv3, ...
    conv_xhat: list[np.ndarray]  # (B*L, Cout)
    conv_invstd: list[np.ndarray]  # (Cout,)
    conv_relu_mask: list[np.ndarray]  # (B*L, Cout)
    fused: np.ndarray  # (B, fc1_in)
    fc1_gate: Optional[np.ndarray]  # (B, out): ReLU mask times the dropout scale
    fc2_input: Optional[np.ndarray]
    batch_size: int


def _array_shapes(config: EncoderConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of every persisted array, in checkpoint order: the
    trainable arrays, then the running statistics."""
    layers = list(enumerate(zip(CONV_CHANNELS, CONV_CHANNELS[1:]), start=1))
    shapes: list[tuple[str, tuple[int, ...]]] = []
    for i, (cin, cout) in layers:
        shapes.append((f"conv{i}.weight", (cout, cin, KERNEL_SIZE)))
        shapes += [(f"conv{i}.gamma", (cout,)), (f"conv{i}.beta", (cout,))]
    if config.use_fc:
        shapes += [
            ("fc1.weight", (OUTPUT_DIM, config.fc1_in)),
            ("fc1.bias", (OUTPUT_DIM,)),
            ("fc2.weight", (OUTPUT_DIM, OUTPUT_DIM)),
            ("fc2.bias", (OUTPUT_DIM,)),
        ]
    for i, (_, cout) in layers:
        shapes += [(f"conv{i}.running_mean", (cout,)), (f"conv{i}.running_var", (cout,))]
    return shapes


def param_count(config: EncoderConfig) -> int:
    """Length of the parameter vector the config implies."""
    return sum(math.prod(shape) for _, shape in _array_shapes(config))


def trainable_count(config: EncoderConfig) -> int:
    """Length of the trainable prefix (all but the running statistics)."""
    return param_count(config) - 2 * sum(CONV_CHANNELS[1:])


def param_views(config: EncoderConfig, values: np.ndarray) -> dict[str, np.ndarray]:
    """Named views of a parameter vector, in checkpoint order; a gradient,
    as long as the trainable prefix, gets views of the trainable arrays."""
    if values.shape not in ((param_count(config),), (trainable_count(config),)):
        raise EncoderError(
            f"vector has shape {values.shape}, config implies ({param_count(config)},) "
            f"parameters or ({trainable_count(config)},) gradients"
        )
    views: dict[str, np.ndarray] = {}
    offset = 0
    for name, shape in _array_shapes(config):
        if offset == values.size:
            break
        size = math.prod(shape)
        views[name] = values[offset : offset + size].reshape(shape)
        offset += size
    return views


def init_params(seed: int, config: EncoderConfig = EncoderConfig()) -> EncoderParams:
    """Fan-in-scaled uniform weight init; batch-norm at identity."""
    rng = np.random.default_rng(seed)
    params = EncoderParams(config, np.zeros(param_count(config)))
    for name, view in params.views.items():
        if name.endswith(".weight"):
            bound = np.sqrt(6.0 / np.prod(view.shape[1:]))
            view[...] = rng.uniform(-bound, bound, size=view.shape)
        elif name.endswith((".gamma", ".running_var")):
            view[...] = 1.0
    return params


def trainable_items(params: EncoderParams) -> list[tuple[str, np.ndarray]]:
    """Views of the trainable arrays (all but the running statistics), in order."""
    return list(param_views(params.config, params.trainable).items())


def _non_finite_array(params: EncoderParams) -> Optional[str]:
    """The name of the first array holding a NaN or an infinity, if any."""
    if np.isfinite(params.values).all():
        return None
    return next(name for name, view in params.views.items() if not np.isfinite(view).all())


def _conv_matrix(weight: np.ndarray) -> np.ndarray:
    """A (out, in, kernel) conv weight as the (kernel*in, out) im2col matrix."""
    cout, cin, k = weight.shape
    return weight.transpose(2, 1, 0).reshape(k * cin, cout)


def _conv1_taps(rule_ids: np.ndarray, cfg: EncoderConfig, out: np.ndarray) -> np.ndarray:
    """conv1's lookup-table rows, written into `out`: (kernel, B*L), one row
    per kernel tap.

    conv1 convolves the one-hot rule matrix, so tap j at position l selects
    column rule[l + j - pad] of the weight's tap-j slice. The table stacks
    the slices, each with one zero row appended; same-length padding,
    padding id -1 and a zeroed schema all select that zero row.
    """
    batch, length = rule_ids.shape
    k, n_rules = KERNEL_SIZE, CONV_CHANNELS[0]
    pad = k // 2
    ids = np.full((batch, length + 2 * pad), n_rules, dtype=np.intp)
    if not cfg.zero_schema:
        ids[:, pad : pad + length] = np.where(rule_ids < 0, n_rules, rule_ids)
    for j in range(k):
        np.add(ids[:, j : j + length], j * (n_rules + 1), out=out[j].reshape(batch, length))
    return out


def _conv1_table(weight: np.ndarray) -> np.ndarray:
    """conv1's (kernel*(in+1), out) lookup table: the tap slices of its
    weight, each followed by a zero row."""
    cout, cin, k = weight.shape
    table = np.zeros((k, cin + 1, cout))
    table[:, :cin] = weight.transpose(2, 1, 0)
    return table.reshape(k * (cin + 1), cout)


def _tap_rows(length: int, k: int) -> list[tuple[slice, slice]]:
    """Per kernel tap of a same-length conv: (output positions, input positions)."""
    pad = k // 2
    return [
        (slice(max(0, pad - j), length - max(0, j - pad)),
         slice(max(0, j - pad), length - max(0, pad - j)))
        for j in range(k)
    ]


def _im2col(x: np.ndarray, batch: int, k: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Channels-last (B*L, C) rows to same-padded (B*L, k*C) windows, written
    into `out` if given. Only the windows' interior is written, so the pads
    of `out` must be zero already."""
    seq = x.reshape(batch, -1, x.shape[1])
    shape = (batch, seq.shape[1], k, x.shape[1])
    cols = np.zeros(shape) if out is None else out.reshape(shape)
    for j, (out_rows, in_rows) in enumerate(_tap_rows(seq.shape[1], k)):
        cols[:, out_rows, j] = seq[:, in_rows]
    return cols.reshape(x.shape[0], -1)


def _storage(previous: Optional[np.ndarray], shape: tuple[int, ...], dtype=np.float64,
             zeroed: bool = False) -> np.ndarray:
    """A C-contiguous `shape` array over the leading elements of the memory
    of `previous`, an array of an earlier trace, when that memory is of
    `dtype` and large enough; else over new memory, zero-filled if asked."""
    size = math.prod(shape)
    owner = previous if previous is None or previous.base is None else previous.base
    if not (isinstance(owner, np.ndarray) and owner.dtype == dtype and owner.size >= size
            and owner.flags.c_contiguous):
        owner = np.zeros(size, dtype) if zeroed else np.empty(size, dtype)
    return owner.reshape(-1)[:size].reshape(shape)


def forward_batch(
    rule_ids: np.ndarray,
    sem_blocks: np.ndarray,
    params: EncoderParams,
    train: bool = False,
    dropout_rng: Optional[np.random.Generator] = None,
    trace: Optional[ForwardTrace] = None,
) -> tuple[np.ndarray, Optional[ForwardTrace]]:
    """Embed a batch: rule_ids (B, 16) integer rule ids with -1 as padding,
    sem_blocks (B, rows, cols).

    The rule ids stand for the one-hot schema (B, 16, 60) that conv1
    convolves; conv1 is computed as a gather of its weight columns.
    Train mode normalizes with batch statistics, applies dropout (when a
    generator is supplied), and returns a ForwardTrace; it mutates only the
    running statistics, which it updates but never reads. Given `trace`, an
    earlier train-mode trace, it writes the new trace into that trace's
    memory, growing an array only for a longer batch; the earlier trace is
    then spent, and so is its output without fc layers, which is its
    `fused` array. The bits are those of a forward without `trace`.
    Inference uses running statistics, no dropout, ignores `trace` and
    returns none.
    """
    cfg = params.config
    rule_ids = np.asarray(rule_ids)
    sem_blocks = np.asarray(sem_blocks, dtype=np.float64)
    length = grammar.MAX_SEQUENCE_LENGTH
    if rule_ids.ndim != 2 or rule_ids.shape[1] != length:
        raise EncoderError(
            f"schema batch has shape {rule_ids.shape}, expected (B, {length}) rule ids"
        )
    if not np.issubdtype(rule_ids.dtype, np.integer):
        raise EncoderError(f"schema rule ids must be integers, not {rule_ids.dtype}")
    if rule_ids.size and (rule_ids.min() < -1 or rule_ids.max() >= CONV_CHANNELS[0]):
        raise EncoderError(f"schema rule ids must lie in [-1, {CONV_CHANNELS[0]})")
    if sem_blocks.ndim != 3 or sem_blocks.shape[1:] != cfg.semantic_shape:
        raise EncoderError(
            f"semantic batch has shape {sem_blocks.shape}, expected "
            f"(B, {cfg.semantic_shape[0]}, {cfg.semantic_shape[1]})"
        )
    bad = _non_finite_array(params)
    if bad is not None:
        raise EncoderError(f"non-finite parameter detected in {bad}")

    batch = rule_ids.shape[0]
    rows = batch * length
    earlier = trace if train else None  # each new trace array goes into its earlier one
    taps = _conv1_taps(rule_ids, cfg, _storage(earlier and earlier.conv1_taps,
                                               (KERNEL_SIZE, rows), np.intp))
    conv_cols: list[np.ndarray] = []
    conv_xhat: list[np.ndarray] = []
    conv_invstd: list[np.ndarray] = []
    conv_relu_mask: list[np.ndarray] = []

    x = None
    for i in range(1, len(CONV_CHANNELS)):
        weight, gamma, beta, running_mean, running_var = (
            params.views[f"conv{i}.{part}"]
            for part in ("weight", "gamma", "beta", "running_mean", "running_var")
        )
        z = _storage(earlier and earlier.conv_xhat[i - 1], (rows, CONV_CHANNELS[i]))
        if i == 1:
            table = _conv1_table(weight)
            # Every tap indexes the table, so "clip" changes no row; "raise"
            # would fill a temporary first.
            table.take(taps[0], axis=0, out=z, mode="clip")
            for row in taps[1:]:
                z += table.take(row, axis=0)
        else:
            cols = _storage(earlier and earlier.conv_cols[i - 2],
                            (rows, KERNEL_SIZE * x.shape[1]), zeroed=True)
            _im2col(x, batch, KERNEL_SIZE, out=cols)
            np.matmul(cols, _conv_matrix(weight), out=z)
            if train:
                conv_cols.append(cols)
        if train:
            mean = np.einsum("ij->j", z) / z.shape[0]
            z -= mean
            var = np.einsum("ij,ij->j", z, z) / z.shape[0]
            n = z.shape[0]
            var_unbiased = var * n / (n - 1) if n > 1 else var
            running_mean *= 1.0 - BN_MOMENTUM
            running_mean += BN_MOMENTUM * mean
            running_var *= 1.0 - BN_MOMENTUM
            running_var += BN_MOMENTUM * var_unbiased
        else:
            z -= running_mean
            var = running_var
        invstd = 1.0 / np.sqrt(var + BN_EPS)
        xhat = z
        xhat *= invstd
        x = xhat * gamma
        x += beta
        if train:
            conv_xhat.append(xhat)
            conv_invstd.append(invstd)
            mask = _storage(earlier and earlier.conv_relu_mask[i - 1], x.shape, bool)
            conv_relu_mask.append(np.greater(x, 0, out=mask))
        np.maximum(x, 0.0, out=x)

    # fc1 reads the conv output channel-major, as (B, C, L) flattened.
    conv_out = x.reshape(batch, length, -1).transpose(0, 2, 1)
    fused = _storage(earlier and earlier.fused, (batch, cfg.fc1_in))
    fused[:, :CONV_FLAT_DIM] = conv_out.reshape(batch, -1)
    fused[:, CONV_FLAT_DIM:] = 0.0 if cfg.zero_semantics else sem_blocks.reshape(batch, -1)

    out, gate, a1 = fused, None, None
    if cfg.use_fc:
        dropping = train and cfg.dropout > 0.0
        if dropping and dropout_rng is None:
            raise EncoderError("train-mode forward with dropout needs a generator")
        # fc1's pre-activation z1 is built in a1's memory: gated in place, it becomes a1.
        a1 = _storage(earlier and earlier.fc2_input, (batch, OUTPUT_DIM))
        np.matmul(fused, params.views["fc1.weight"].T, out=a1)
        a1 += params.views["fc1.bias"]
        gate = _storage(earlier and earlier.fc1_gate, a1.shape, np.float64 if dropping else bool)
        np.greater(a1, 0, out=gate)
        if dropping:
            # The ReLU mask times the dropout mask's scaled keep, as 1.0 * scale or 0.0.
            gate *= (dropout_rng.random(a1.shape) >= cfg.dropout) / (1.0 - cfg.dropout)
        a1 *= gate
        out = a1 @ params.views["fc2.weight"].T
        out += params.views["fc2.bias"]

    if not train:
        return out, None
    trace = ForwardTrace(
        conv1_taps=taps,
        conv_cols=conv_cols,
        conv_xhat=conv_xhat,
        conv_invstd=conv_invstd,
        conv_relu_mask=conv_relu_mask,
        fused=fused,
        fc1_gate=gate,
        fc2_input=a1,
        batch_size=batch,
    )
    return out, trace


def backward_batch(
    trace: ForwardTrace, d_out: np.ndarray, params: EncoderParams, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Exact gradients of a train-mode forward, given d(loss)/d(output).

    Writes `out` if given, else a new vector, laid out like
    params.trainable; every slot is overwritten. The batch-norm backward
    takes the full batch-statistics path (mean and variance depend on the
    parameters).
    """
    cfg = params.config
    if d_out.shape[0] != trace.batch_size:
        raise EncoderError("trace/gradient batch size mismatch")
    grad = np.zeros_like(params.trainable) if out is None else out
    g = param_views(cfg, grad)

    if cfg.use_fc:
        np.matmul(d_out.T, trace.fc2_input, out=g["fc2.weight"])
        g["fc2.bias"][...] = d_out.sum(axis=0)
        d_z1 = (d_out @ params.views["fc2.weight"]) * trace.fc1_gate
        np.matmul(d_z1.T, trace.fused, out=g["fc1.weight"])
        g["fc1.bias"][...] = d_z1.sum(axis=0)
        # Only the conv columns of fc1's input lead back to parameters.
        d_conv = d_z1 @ params.views["fc1.weight"][:, :CONV_FLAT_DIM]
    else:
        d_conv = d_out[:, :CONV_FLAT_DIM]

    batch, length, k = trace.batch_size, grammar.MAX_SEQUENCE_LENGTH, KERNEL_SIZE
    d_x = d_conv.reshape(batch, -1, length).transpose(0, 2, 1).reshape(batch * length, -1)

    for i in range(len(CONV_CHANNELS) - 2, -1, -1):
        layer = f"conv{i + 1}."
        weight = params.views[layer + "weight"]
        cout, cin, _ = weight.shape
        d_z = d_x * trace.conv_relu_mask[i]  # d(loss)/d(y), made d(loss)/d(z) below
        xhat = trace.conv_xhat[i]
        n = d_z.shape[0]
        d_gamma, d_beta = g[layer + "gamma"], g[layer + "beta"]
        d_gamma[...] = np.einsum("ij,ij->j", d_z, xhat)
        d_beta[...] = np.einsum("ij->j", d_z)
        # Batch-norm backward through the batch mean and variance.
        d_z -= d_beta / n
        d_z -= xhat * (d_gamma / n)
        d_z *= trace.conv_invstd[i] * params.views[layer + "gamma"]
        if i == 0:
            # Scatter-add of d_z onto the table rows that conv1 gathered.
            taps = trace.conv1_taps.ravel()
            table = np.stack(
                [np.bincount(taps, np.tile(d_z[:, o], k), k * (cin + 1)) for o in range(cout)],
                axis=1,
            )
            g["conv1.weight"][...] = table.reshape(k, cin + 1, cout)[:, :cin].transpose(2, 1, 0)
            break
        g[layer + "weight"][...] = (
            (d_z.T @ trace.conv_cols[i - 1]).reshape(cout, k, cin).transpose(0, 2, 1)
        )
        # The input gradient is a convolution of d_z with the tap-flipped weight.
        flipped = weight[:, :, ::-1].transpose(1, 0, 2)
        d_x = _im2col(d_z, batch, k) @ _conv_matrix(flipped)
    return grad


def _config_from_dict(obj) -> EncoderConfig:
    """The config of a checkpoint header: every key present, each
    architecture value equal to the constant as JSON text (so 3.0 is not 3),
    and the switches a valid EncoderConfig."""
    if not isinstance(obj, dict):
        raise CheckpointError("invalid config block: expected an object")
    for problem, keys in (
        ("missing", [name for name in _CONFIG_BLOCK if name not in obj]),
        ("unknown", sorted(set(obj) - set(_CONFIG_BLOCK))),
    ):
        if keys:
            raise CheckpointError(f"invalid config block: {problem} keys {keys}")
    for name, fixed in _CONFIG_BLOCK.items():
        if fixed is not None and json.dumps(obj[name]) != json.dumps(fixed):
            raise CheckpointError(
                f"invalid config block: {name} must be {json.dumps(fixed)}, "
                f"got {json.dumps(obj[name])}"
            )
    try:
        return EncoderConfig(**{name: obj[name] for name, fixed in _CONFIG_BLOCK.items()
                                if fixed is None})
    except EncoderError as exc:
        raise CheckpointError(f"invalid config block: {exc}") from exc


def save_checkpoint(
    params: EncoderParams, path: str = "encoder.ckpt", extras: Optional[dict] = None
) -> None:
    """Write params to a little-endian binary checkpoint (bit-exact)."""
    config = {name: getattr(params.config, name) if fixed is None else fixed
              for name, fixed in _CONFIG_BLOCK.items()}
    header = json.dumps(
        {"format_version": CHECKPOINT_FORMAT_VERSION, "config": config, "extras": extras},
        ensure_ascii=False,
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(
            CHECKPOINT_MAGIC + struct.pack("<I", len(header)) + header
            + struct.pack("<Q", params.values.size)
        )
        fh.write(params.values.astype("<f8", copy=False))


def _read_exact(fh, size: int, part: str) -> bytes:
    # A damaged header length can ask for 4 GiB, so a regular file is read
    # for no more than it holds.
    held = os.fstat(fh.fileno())
    room = held.st_size - fh.tell() if stat.S_ISREG(held.st_mode) else size
    data = fh.read(min(size, room))
    if len(data) != size:
        raise CheckpointError(f"truncated checkpoint: the file ends inside the {part}")
    return data


def _read_header(fh) -> dict:
    """Check the magic and read the JSON header of an open checkpoint."""
    magic = fh.read(len(CHECKPOINT_MAGIC))
    if magic != CHECKPOINT_MAGIC:
        if len(magic) < len(CHECKPOINT_MAGIC) and CHECKPOINT_MAGIC.startswith(magic):
            raise CheckpointError("truncated checkpoint: the file ends inside the magic")
        raise CheckpointError(
            f"checkpoint version mismatch: expected magic {CHECKPOINT_MAGIC!r}, "
            f"found {magic!r}"
        )
    (header_len,) = struct.unpack("<I", _read_exact(fh, 4, "header length"))
    text = _read_exact(fh, header_len, "header")
    try:
        header = json.loads(text.decode("utf-8"))
    except ValueError as exc:  # not UTF-8, not JSON, or an overlong integer
        raise CheckpointError(f"corrupt checkpoint header: {exc}") from exc
    except RecursionError:
        raise CheckpointError("corrupt checkpoint header: nested too deeply") from None
    version = header.get("format_version") if isinstance(header, dict) else None
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(f"checkpoint version mismatch: format {version!r}")
    return header


def load_checkpoint(path: str) -> tuple[EncoderParams, EncoderConfig]:
    """Read a checkpoint back; inverse of save_checkpoint, bit-exactly."""
    with open(path, "rb") as fh:
        header = _read_header(fh)
        config = _config_from_dict(header.get("config"))
        (count,) = struct.unpack("<Q", _read_exact(fh, 8, "value count"))
        expected = param_count(config)
        if count != expected:
            raise CheckpointError(
                f"checkpoint shape mismatch: holds {count} values, config implies {expected}"
            )
        # Read in place; readinto fills the array unless the stream ends first.
        payload = np.empty(count, dtype="<f8")
        if fh.readinto(payload) < payload.nbytes:
            raise CheckpointError("truncated checkpoint: the file ends inside the payload")
        if fh.read(1):
            raise CheckpointError("checkpoint shape mismatch: bytes follow the payload")
    # A no-op on a little-endian host; a big-endian host converts.
    params = EncoderParams(config, payload.astype(np.float64, copy=False))
    bad = _non_finite_array(params)
    if bad is not None:
        raise CheckpointError(f"corrupt checkpoint: non-finite value in {bad}")
    return params, config
