"""Neural-network building blocks: Module, Linear, MLP."""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor


class Parameter(Tensor):
    """A tensor registered as a trainable parameter."""

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)


class Module:
    """Base class with recursive parameter discovery.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; :meth:`parameters` walks them in deterministic order.
    """

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        for name in sorted(vars(self)):
            value = getattr(self, name)
            if isinstance(value, Parameter):
                params.append(value)
            elif isinstance(value, Module):
                params.extend(value.parameters())
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Parameter):
                        params.append(item)
                    elif isinstance(item, Module):
                        params.extend(item.parameters())
        return params

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Parameter]]:
        named: list[tuple[str, Parameter]] = []
        for name in sorted(vars(self)):
            value = getattr(self, name)
            path = f"{prefix}{name}"
            if isinstance(value, Parameter):
                named.append((path, value))
            elif isinstance(value, Module):
                named.extend(value.named_parameters(prefix=f"{path}."))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Parameter):
                        named.append((f"{path}.{i}", item))
                    elif isinstance(item, Module):
                        named.extend(item.named_parameters(prefix=f"{path}.{i}."))
        return named

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def to_dtype(self, dtype) -> "Module":
        """Cast every parameter to ``dtype`` in place; clears gradients.

        The reduced-precision scoring path casts a loaded model to
        float32 once at registration time; training and relaxation stay
        float64 (serialization always persists float64 weights).
        """
        dtype = np.dtype(dtype)
        for param in self.parameters():
            param.data = param.data.astype(dtype, copy=False)
            param.grad = None
        return self

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):
        raise NotImplementedError


class Linear(Module):
    """Affine layer ``y = x @ W + b`` with Xavier-uniform init."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, bias: bool = True) -> None:
        bound = np.sqrt(6.0 / (in_features + out_features))
        self.weight = Parameter(rng.uniform(-bound, bound,
                                            size=(in_features, out_features)))
        self.bias = Parameter(np.zeros(out_features)) if bias else None
        self.in_features = in_features
        self.out_features = out_features

    def forward(self, x: Tensor) -> Tensor:
        if self.bias is None:
            return x @ self.weight
        return x.affine(self.weight, self.bias)


#: Activations after an MLP's last layer, by name.
_FINAL_ACTIVATIONS = {
    "identity": lambda t: t,
    "sigmoid": lambda t: t.sigmoid(),
}


class MLP(Module):
    """Multi-layer perceptron with softplus hidden activations.

    Args:
        dims: layer widths, e.g. ``[in, hidden, out]``.
        rng: parameter-init RNG.
        final_activation: activation after the last layer: "identity"
            (default) or "sigmoid".
    """

    def __init__(
        self,
        dims: list[int],
        rng: np.random.Generator,
        final_activation: str = "identity",
    ) -> None:
        if len(dims) < 2:
            raise ValueError(f"MLP needs at least [in, out] dims, got {dims}")
        if final_activation not in _FINAL_ACTIVATIONS:
            raise ValueError(f"unknown activation {final_activation!r}")
        self.layers = [
            Linear(d_in, d_out, rng) for d_in, d_out in zip(dims[:-1], dims[1:])
        ]
        self.final_activation = final_activation

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers[:-1]:
            x = layer(x).softplus()
        x = self.layers[-1](x)
        return _FINAL_ACTIVATIONS[self.final_activation](x)
