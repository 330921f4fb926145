"""Forward network from encoded chart inputs to the chart vector.

The rule matrix passes through three 1-d convolution layers (kernel 3,
same-length padding, batch normalization, ReLU) and is flattened to a
128-dim structural feature; the semantic block is flattened and concatenated;
two fully connected layers (ReLU and dropout between them) produce the final
540-dim embedding. Everything is float64 numpy.

Inference is a pure function of (inputs, params); training-mode forwards use
batch statistics, record a trace for the backward pass, and may update the
running batch-norm statistics.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import grammar, semantics

CHECKPOINT_MAGIC = b"C2V1"
CHECKPOINT_FORMAT_VERSION = 1


class EncoderError(ValueError):
    """Raised for shape mismatches and non-finite parameters."""


class CheckpointError(ValueError):
    """Raised for unreadable, mismatched, or corrupt checkpoint files."""


@dataclass(frozen=True)
class EncoderConfig:
    conv_channels: tuple[int, ...] = (60, 30, 15, 8)
    kernel_size: int = 3
    sequence_length: int = 16
    semantic_slots: int = 25
    output_dim: int = 540
    dropout: float = 0.1
    bn_momentum: float = 0.1
    bn_eps: float = 1e-5
    semantic_mode: str = "interval-average"
    use_locations: bool = True
    zero_schema: bool = False
    zero_semantics: bool = False
    use_fc: bool = True

    def __post_init__(self):
        if self.conv_channels[0] != grammar.RULE_COUNT:
            raise EncoderError(
                f"first conv layer must take {grammar.RULE_COUNT} input channels"
            )
        if self.sequence_length != grammar.MAX_SEQUENCE_LENGTH:
            raise EncoderError(
                f"sequence length must be {grammar.MAX_SEQUENCE_LENGTH}"
            )
        if self.semantic_slots != semantics.SEMANTIC_SLOTS:
            raise EncoderError(f"semantic slots must be {semantics.SEMANTIC_SLOTS}")
        if self.kernel_size % 2 != 1:
            raise EncoderError("kernel size must be odd for same-length padding")
        if self.semantic_mode not in semantics.SEMANTIC_MODES:
            raise EncoderError(f"unknown semantic mode {self.semantic_mode!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise EncoderError("dropout must lie in [0, 1)")

    @property
    def semantic_shape(self) -> tuple[int, int]:
        return semantics.semantic_shape(self.semantic_mode)

    @property
    def token_dim(self) -> int:
        return self.semantic_shape[1]

    @property
    def conv_flat_dim(self) -> int:
        return self.sequence_length * self.conv_channels[-1]

    @property
    def fc1_in(self) -> int:
        rows, cols = self.semantic_shape
        return self.conv_flat_dim + rows * cols

    @property
    def embedding_dim(self) -> int:
        return self.output_dim if self.use_fc else self.fc1_in


@dataclass
class ConvBNParams:
    weight: np.ndarray  # (out, in, kernel)
    bias: np.ndarray  # (out,)
    gamma: np.ndarray  # (out,)
    beta: np.ndarray  # (out,)
    running_mean: np.ndarray  # (out,)
    running_var: np.ndarray  # (out,)


@dataclass
class DenseParams:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)


@dataclass
class EncoderParams:
    config: EncoderConfig
    conv: list[ConvBNParams]
    fc1: Optional[DenseParams]
    fc2: Optional[DenseParams]


@dataclass
class ForwardTrace:
    """Per-layer activations and batch statistics cached for backprop."""

    conv_inputs_padded: list[np.ndarray]  # (B, Cin, L + 2*pad) per layer
    conv_xhat: list[np.ndarray]  # (B, Cout, L)
    conv_invstd: list[np.ndarray]  # (Cout,)
    conv_relu_mask: list[np.ndarray]  # (B, Cout, L)
    fused: np.ndarray  # (B, fc1_in)
    fc1_relu_mask: Optional[np.ndarray]
    dropout_mask: Optional[np.ndarray]
    fc2_input: Optional[np.ndarray]
    batch_size: int


def init_params(seed: int, config: EncoderConfig = EncoderConfig()) -> EncoderParams:
    """Fan-in-scaled uniform weight init; batch-norm at identity."""
    rng = np.random.default_rng(seed)

    def uniform(shape: tuple[int, ...], fan_in: int) -> np.ndarray:
        bound = np.sqrt(6.0 / fan_in)
        return rng.uniform(-bound, bound, size=shape)

    conv: list[ConvBNParams] = []
    for cin, cout in zip(config.conv_channels, config.conv_channels[1:]):
        conv.append(
            ConvBNParams(
                weight=uniform((cout, cin, config.kernel_size), cin * config.kernel_size),
                bias=np.zeros(cout),
                gamma=np.ones(cout),
                beta=np.zeros(cout),
                running_mean=np.zeros(cout),
                running_var=np.ones(cout),
            )
        )
    fc1 = fc2 = None
    if config.use_fc:
        fc1 = DenseParams(
            weight=uniform((config.output_dim, config.fc1_in), config.fc1_in),
            bias=np.zeros(config.output_dim),
        )
        fc2 = DenseParams(
            weight=uniform((config.output_dim, config.output_dim), config.output_dim),
            bias=np.zeros(config.output_dim),
        )
    return EncoderParams(config=config, conv=conv, fc1=fc1, fc2=fc2)


def trainable_items(params: EncoderParams) -> list[tuple[str, np.ndarray]]:
    """Trainable arrays in their fixed canonical order."""
    items: list[tuple[str, np.ndarray]] = []
    for i, layer in enumerate(params.conv, start=1):
        items.append((f"conv{i}.weight", layer.weight))
        items.append((f"conv{i}.bias", layer.bias))
        items.append((f"conv{i}.gamma", layer.gamma))
        items.append((f"conv{i}.beta", layer.beta))
    if params.fc1 is not None:
        items.append(("fc1.weight", params.fc1.weight))
        items.append(("fc1.bias", params.fc1.bias))
    if params.fc2 is not None:
        items.append(("fc2.weight", params.fc2.weight))
        items.append(("fc2.bias", params.fc2.bias))
    return items


def checkpoint_items(params: EncoderParams) -> list[tuple[str, np.ndarray]]:
    """All persisted arrays (trainable plus running statistics), in order."""
    items: list[tuple[str, np.ndarray]] = []
    for i, layer in enumerate(params.conv, start=1):
        items.append((f"conv{i}.weight", layer.weight))
        items.append((f"conv{i}.bias", layer.bias))
        items.append((f"conv{i}.gamma", layer.gamma))
        items.append((f"conv{i}.beta", layer.beta))
        items.append((f"conv{i}.running_mean", layer.running_mean))
        items.append((f"conv{i}.running_var", layer.running_var))
    if params.fc1 is not None:
        items.append(("fc1.weight", params.fc1.weight))
        items.append(("fc1.bias", params.fc1.bias))
    if params.fc2 is not None:
        items.append(("fc2.weight", params.fc2.weight))
        items.append(("fc2.bias", params.fc2.bias))
    return items


def copy_params(params: EncoderParams) -> EncoderParams:
    return EncoderParams(
        config=params.config,
        conv=[
            ConvBNParams(
                weight=l.weight.copy(),
                bias=l.bias.copy(),
                gamma=l.gamma.copy(),
                beta=l.beta.copy(),
                running_mean=l.running_mean.copy(),
                running_var=l.running_var.copy(),
            )
            for l in params.conv
        ],
        fc1=None if params.fc1 is None else DenseParams(params.fc1.weight.copy(), params.fc1.bias.copy()),
        fc2=None if params.fc2 is None else DenseParams(params.fc2.weight.copy(), params.fc2.bias.copy()),
    )


def params_equal(a: EncoderParams, b: EncoderParams) -> bool:
    items_a, items_b = checkpoint_items(a), checkpoint_items(b)
    if a.config != b.config or len(items_a) != len(items_b):
        return False
    return all(
        na == nb and va.shape == vb.shape and np.array_equal(va, vb)
        for (na, va), (nb, vb) in zip(items_a, items_b)
    )


def _conv1d_same(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Same-length 1-d convolution. Returns (output, padded input)."""
    pad = weight.shape[2] // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
    windows = sliding_window_view(xp, weight.shape[2], axis=2)  # (B, Cin, L, K)
    out = np.einsum("bclk,ock->bol", windows, weight, optimize=True)
    out += bias[None, :, None]
    return out, xp


def forward_batch(
    schemas: np.ndarray,
    sem_blocks: np.ndarray,
    params: EncoderParams,
    train: bool = False,
    dropout_rng: Optional[np.random.Generator] = None,
    update_running_stats: bool = True,
) -> tuple[np.ndarray, Optional[ForwardTrace]]:
    """Embed a batch: schemas (B, 16, 60), sem_blocks (B, rows, cols).

    Train mode normalizes with batch statistics, applies dropout (when a
    generator is supplied), and returns a ForwardTrace; it mutates only the
    running statistics, and only when update_running_stats is set. Inference
    uses running statistics, no dropout, and returns no trace.
    """
    cfg = params.config
    schemas = np.asarray(schemas, dtype=np.float64)
    sem_blocks = np.asarray(sem_blocks, dtype=np.float64)
    if schemas.ndim != 3 or schemas.shape[1:] != (cfg.sequence_length, cfg.conv_channels[0]):
        raise EncoderError(f"schema batch has shape {schemas.shape}")
    if sem_blocks.ndim != 3 or sem_blocks.shape[1:] != cfg.semantic_shape:
        raise EncoderError(
            f"semantic batch has shape {sem_blocks.shape}, expected "
            f"(B, {cfg.semantic_shape[0]}, {cfg.semantic_shape[1]})"
        )
    for name, arr in trainable_items(params):
        if not np.all(np.isfinite(arr)):
            raise EncoderError(f"non-finite parameter detected in {name}")

    batch = schemas.shape[0]
    x = schemas.transpose(0, 2, 1)  # (B, 60, 16)
    if cfg.zero_schema:
        x = np.zeros_like(x)
    sem = np.zeros_like(sem_blocks) if cfg.zero_semantics else sem_blocks

    conv_inputs_padded: list[np.ndarray] = []
    conv_xhat: list[np.ndarray] = []
    conv_invstd: list[np.ndarray] = []
    conv_relu_mask: list[np.ndarray] = []

    for layer in params.conv:
        z, xp = _conv1d_same(x, layer.weight, layer.bias)
        if train:
            mean = z.mean(axis=(0, 2))
            var = z.var(axis=(0, 2))
            if update_running_stats:
                n = z.shape[0] * z.shape[2]
                var_unbiased = var * n / (n - 1) if n > 1 else var
                layer.running_mean *= 1.0 - cfg.bn_momentum
                layer.running_mean += cfg.bn_momentum * mean
                layer.running_var *= 1.0 - cfg.bn_momentum
                layer.running_var += cfg.bn_momentum * var_unbiased
        else:
            mean = layer.running_mean
            var = layer.running_var
        invstd = 1.0 / np.sqrt(var + cfg.bn_eps)
        xhat = (z - mean[None, :, None]) * invstd[None, :, None]
        y = layer.gamma[None, :, None] * xhat + layer.beta[None, :, None]
        mask = y > 0
        x = np.where(mask, y, 0.0)
        if train:
            conv_inputs_padded.append(xp)
            conv_xhat.append(xhat)
            conv_invstd.append(invstd)
            conv_relu_mask.append(mask)

    fused = np.concatenate([x.reshape(batch, -1), sem.reshape(batch, -1)], axis=1)

    if not cfg.use_fc:
        if train:
            trace = ForwardTrace(
                conv_inputs_padded=conv_inputs_padded,
                conv_xhat=conv_xhat,
                conv_invstd=conv_invstd,
                conv_relu_mask=conv_relu_mask,
                fused=fused,
                fc1_relu_mask=None,
                dropout_mask=None,
                fc2_input=None,
                batch_size=batch,
            )
            return fused, trace
        return fused, None

    z1 = fused @ params.fc1.weight.T + params.fc1.bias
    relu_mask = z1 > 0
    a1 = np.where(relu_mask, z1, 0.0)
    dropout_mask = None
    if train and cfg.dropout > 0.0:
        if dropout_rng is None:
            raise EncoderError("train-mode forward with dropout needs a generator")
        keep = dropout_rng.random(a1.shape) >= cfg.dropout
        dropout_mask = keep / (1.0 - cfg.dropout)
        a1 = a1 * dropout_mask
    out = a1 @ params.fc2.weight.T + params.fc2.bias

    if train:
        trace = ForwardTrace(
            conv_inputs_padded=conv_inputs_padded,
            conv_xhat=conv_xhat,
            conv_invstd=conv_invstd,
            conv_relu_mask=conv_relu_mask,
            fused=fused,
            fc1_relu_mask=relu_mask,
            dropout_mask=dropout_mask,
            fc2_input=a1,
            batch_size=batch,
        )
        return out, trace
    return out, None


def forward(
    schema: np.ndarray,
    sem_block: np.ndarray,
    params: EncoderParams,
    mode: str = "infer",
    dropout_rng: Optional[np.random.Generator] = None,
) -> tuple[np.ndarray, Optional[ForwardTrace]]:
    """Embed a single chart; mode is "infer" or "train"."""
    if mode not in ("infer", "train"):
        raise EncoderError(f"unknown mode {mode!r}")
    out, trace = forward_batch(
        schema[None], sem_block[None], params, train=mode == "train", dropout_rng=dropout_rng
    )
    return out[0], trace


def backward_batch(trace: ForwardTrace, d_out: np.ndarray, params: EncoderParams) -> dict[str, np.ndarray]:
    """Exact gradients of a train-mode forward, given d(loss)/d(output).

    Returns a dict keyed like trainable_items. The batch-norm backward takes
    the full batch-statistics path (mean and variance both depend on the
    parameters upstream).
    """
    cfg = params.config
    if d_out.shape[0] != trace.batch_size:
        raise EncoderError("trace/gradient batch size mismatch")
    grads: dict[str, np.ndarray] = {}

    if cfg.use_fc:
        grads["fc2.weight"] = d_out.T @ trace.fc2_input
        grads["fc2.bias"] = d_out.sum(axis=0)
        d_a1 = d_out @ params.fc2.weight
        if trace.dropout_mask is not None:
            d_a1 = d_a1 * trace.dropout_mask
        d_z1 = d_a1 * trace.fc1_relu_mask
        grads["fc1.weight"] = d_z1.T @ trace.fused
        grads["fc1.bias"] = d_z1.sum(axis=0)
        d_fused = d_z1 @ params.fc1.weight
    else:
        d_fused = d_out

    batch = trace.batch_size
    d_conv_flat = d_fused[:, : cfg.conv_flat_dim]
    d_x = d_conv_flat.reshape(batch, cfg.conv_channels[-1], cfg.sequence_length)

    for i in range(len(params.conv) - 1, -1, -1):
        layer = params.conv[i]
        d_y = d_x * trace.conv_relu_mask[i]
        xhat = trace.conv_xhat[i]
        invstd = trace.conv_invstd[i]
        grads[f"conv{i + 1}.gamma"] = (d_y * xhat).sum(axis=(0, 2))
        grads[f"conv{i + 1}.beta"] = d_y.sum(axis=(0, 2))
        d_xhat = d_y * layer.gamma[None, :, None]
        mean_d = d_xhat.mean(axis=(0, 2))
        mean_dx = (d_xhat * xhat).mean(axis=(0, 2))
        d_z = invstd[None, :, None] * (
            d_xhat - mean_d[None, :, None] - xhat * mean_dx[None, :, None]
        )
        xp = trace.conv_inputs_padded[i]
        windows = sliding_window_view(xp, layer.weight.shape[2], axis=2)
        grads[f"conv{i + 1}.weight"] = np.einsum("bol,bclk->ock", d_z, windows, optimize=True)
        grads[f"conv{i + 1}.bias"] = d_z.sum(axis=(0, 2))
        if i > 0:
            d_xp = np.zeros_like(xp)
            for k in range(layer.weight.shape[2]):
                d_xp[:, :, k : k + cfg.sequence_length] += np.einsum(
                    "bol,oc->bcl", d_z, layer.weight[:, :, k], optimize=True
                )
            pad = layer.weight.shape[2] // 2
            d_x = d_xp[:, :, pad : pad + cfg.sequence_length]
    return grads


def _config_to_dict(config: EncoderConfig) -> dict:
    return {
        "conv_channels": list(config.conv_channels),
        "kernel_size": config.kernel_size,
        "sequence_length": config.sequence_length,
        "semantic_slots": config.semantic_slots,
        "output_dim": config.output_dim,
        "dropout": config.dropout,
        "bn_momentum": config.bn_momentum,
        "bn_eps": config.bn_eps,
        "semantic_mode": config.semantic_mode,
        "use_locations": config.use_locations,
        "zero_schema": config.zero_schema,
        "zero_semantics": config.zero_semantics,
        "use_fc": config.use_fc,
    }


def _config_from_dict(obj: dict) -> EncoderConfig:
    try:
        return EncoderConfig(
            conv_channels=tuple(obj["conv_channels"]),
            kernel_size=obj["kernel_size"],
            sequence_length=obj["sequence_length"],
            semantic_slots=obj["semantic_slots"],
            output_dim=obj["output_dim"],
            dropout=obj["dropout"],
            bn_momentum=obj["bn_momentum"],
            bn_eps=obj["bn_eps"],
            semantic_mode=obj["semantic_mode"],
            use_locations=obj["use_locations"],
            zero_schema=obj["zero_schema"],
            zero_semantics=obj["zero_semantics"],
            use_fc=obj["use_fc"],
        )
    except (KeyError, TypeError, EncoderError) as exc:
        raise CheckpointError(f"invalid config block: {exc}") from exc


def save_checkpoint(
    params: EncoderParams,
    config: Optional[EncoderConfig] = None,
    path: str = "encoder.ckpt",
    extras: Optional[dict] = None,
) -> None:
    """Write params to a little-endian binary checkpoint (bit-exact)."""
    config = config or params.config
    if config != params.config:
        raise CheckpointError("config does not match the params being saved")
    header = json.dumps(
        {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "config": _config_to_dict(config),
            "extras": extras,
        },
        ensure_ascii=False,
    ).encode("utf-8")
    items = checkpoint_items(params)
    count = sum(arr.size for _, arr in items)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(struct.pack("<Q", count))
        for _, arr in items:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_exact(fh, size: int, part: str) -> bytes:
    data = fh.read(size)
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
    try:
        header = json.loads(_read_exact(fh, header_len, "header").decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint header: {exc}") from exc
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
        payload = fh.read()

    template = init_params(seed=0, config=config)
    items = checkpoint_items(template)
    expected = sum(arr.size for _, arr in items)
    if count != expected:
        raise CheckpointError(
            f"checkpoint shape mismatch: holds {count} values, config implies {expected}"
        )
    if len(payload) < 8 * expected:
        raise CheckpointError("truncated checkpoint: the file ends inside the payload")
    if len(payload) > 8 * expected:
        raise CheckpointError("checkpoint shape mismatch: bytes follow the payload")
    values = np.frombuffer(payload, dtype="<f8")
    offset = 0
    loaded: dict[str, np.ndarray] = {}
    for name, arr in items:
        loaded[name] = values[offset : offset + arr.size].reshape(arr.shape).copy()
        offset += arr.size
    conv = [
        ConvBNParams(
            weight=loaded[f"conv{i}.weight"],
            bias=loaded[f"conv{i}.bias"],
            gamma=loaded[f"conv{i}.gamma"],
            beta=loaded[f"conv{i}.beta"],
            running_mean=loaded[f"conv{i}.running_mean"],
            running_var=loaded[f"conv{i}.running_var"],
        )
        for i in range(1, len(config.conv_channels))
    ]
    fc1 = DenseParams(loaded["fc1.weight"], loaded["fc1.bias"]) if config.use_fc else None
    fc2 = DenseParams(loaded["fc2.weight"], loaded["fc2.bias"]) if config.use_fc else None
    return EncoderParams(config=config, conv=conv, fc1=fc1, fc2=fc2), config


def load_checkpoint_extras(path: str) -> Optional[dict]:
    """The extras block (training hyperparameters) stored in a checkpoint."""
    with open(path, "rb") as fh:
        return _read_header(fh).get("extras")
