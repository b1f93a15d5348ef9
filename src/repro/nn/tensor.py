"""The autograd Tensor: a numpy array plus a backward tape.

Supports the operations the 3DGNN, the VAE baseline, and potential
relaxation require: elementwise arithmetic with broadcasting, matmul,
reductions, common nonlinearities, indexing, and shape ops.  Gradients
accumulate into ``.grad`` on tensors created with ``requires_grad=True``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


#: Global tape switch (see :class:`no_grad`).
_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables backward-tape construction.

    Inside the context every new :class:`Tensor` is created grad-free:
    no backward closure, no parent references.  Inference paths (the
    scoring service, ``predicted_metrics``) run under it so a forward
    never retains its intermediates (the model's parameters require
    grad, so a taped forward would keep its whole activation graph
    alive), and the buffer set a 3DGNN forward leases from its plan is
    free again as soon as the forward returns.  Reentrant and
    exception-safe; tensors created *outside* keep their tapes.
    """

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc_info) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev


def is_grad_enabled() -> bool:
    """Whether new tensors record a backward (``False`` inside
    :class:`no_grad`)."""
    return _GRAD_ENABLED


class frozen:
    """Context manager that holds a list of tensors fixed for the tape.

    Inside the context every listed tensor (typically a model's
    parameters) has ``requires_grad=False``, so a new tensor records a
    backward only when it depends on some other grad-requiring input;
    unlike :class:`no_grad` the tape stays on.  Potential relaxation
    differentiates the trained model with respect to its guidance
    alone: under ``frozen(params)`` the backward skips every weight
    gradient and the parameter-only subgraph, leaves the parameters'
    ``.grad`` untouched, and computes bitwise the input gradient a full
    backward would.  On exit each tensor gets its own flag back, also
    when the body raises.
    """

    def __init__(self, tensors: Sequence["Tensor"]) -> None:
        self.tensors = tensors

    def __enter__(self) -> "frozen":
        self._flags = [t.requires_grad for t in self.tensors]
        for t in self.tensors:
            t.requires_grad = False
        return self

    def __exit__(self, *exc_info) -> None:
        for t, flag in zip(self.tensors, self._flags):
            t.requires_grad = flag


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading broadcast axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A differentiable array.

    Attributes:
        data: the underlying numpy array — float64 by default; a
            float32 array passes through unconverted (the opt-in
            reduced-precision scoring path threads its dtype from the
            guidance input through every op).
        grad: accumulated gradient (same shape as data), or None.
        requires_grad: whether this tensor participates in autograd.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: tuple["Tensor", ...] = (),
        backward: Callable[[np.ndarray], None] | None = None,
    ) -> None:
        arr = np.asarray(data)
        if arr.dtype != np.float32:
            # The documented float64 default; float32 inputs pass
            # through untouched, so the float32 serving path never
            # takes this branch.
            # repro-lint: disable-next-line=PRE001 -- guarded float64 default
            arr = np.asarray(arr, dtype=np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = _GRAD_ENABLED and (
            requires_grad or any(p.requires_grad for p in parents))
        self._parents = parents if self.requires_grad else ()
        self._backward = backward if self.requires_grad else None

    # -- basic introspection ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data.copy()

    # -- autograd ---------------------------------------------------------------------

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            # One pass instead of zeros-then-add, with the same bits:
            # adding 0.0 is exact and turns ``-0.0`` into ``0.0``, the
            # output broadcasts and casts as ``zeros += grad`` does, and
            # the fresh C-ordered buffer never aliases ``grad``.
            self.grad = np.add(grad, 0.0,
                               out=np.empty(self.data.shape, self.data.dtype))
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor (default seed: ones)."""
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that requires no grad")
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)

        # Topological order over the tape.
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- arithmetic ----------------------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = as_tensor(other, self.data.dtype)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor(out_data, parents=(self, other), backward=backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor(-self.data, parents=(self,), backward=backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-as_tensor(other, self.data.dtype))

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other, self.data.dtype) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other, self.data.dtype)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor(out_data, parents=(self, other), backward=backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other, self.data.dtype)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data ** 2), other.shape)
                )

        return Tensor(out_data, parents=(self, other), backward=backward)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other, self.data.dtype) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor(out_data, parents=(self,), backward=backward)

    def __matmul__(self, other) -> "Tensor":
        """Matrix product; supports 2D@2D, 1D@2D, 2D@1D, and 1D@1D."""
        other = as_tensor(other)
        a, b = self.data, other.data
        if a.ndim > 2 or b.ndim > 2:
            raise ValueError("matmul supports at most 2-D operands")
        out_data = a @ b

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if a.ndim == 2 and b.ndim == 2:
                    self._accumulate(grad @ b.T)
                elif a.ndim == 1 and b.ndim == 2:
                    self._accumulate(b @ grad)
                elif a.ndim == 2 and b.ndim == 1:
                    self._accumulate(np.outer(grad, b))
                else:  # 1D @ 1D -> scalar
                    self._accumulate(grad * b)
            if other.requires_grad:
                if a.ndim == 2 and b.ndim == 2:
                    other._accumulate(a.T @ grad)
                elif a.ndim == 1 and b.ndim == 2:
                    other._accumulate(np.outer(a, grad))
                elif a.ndim == 2 and b.ndim == 1:
                    other._accumulate(a.T @ grad)
                else:
                    other._accumulate(grad * a)

        return Tensor(out_data, parents=(self, other), backward=backward)

    def affine(self, weight: "Tensor", bias: "Tensor") -> "Tensor":
        """Fused ``self @ weight + bias``: one temporary and one tape node.

        Bit-identical to the two-op chain (the bias add runs in place on
        the fresh matmul output) but skips an intermediate allocation and
        backward closure — the hot path of every Linear layer.
        """
        weight, bias = as_tensor(weight), as_tensor(bias)
        a, w = self.data, weight.data
        if a.ndim > 2 or w.ndim != 2:
            raise ValueError("affine supports 1-D/2-D input and 2-D weight")
        out_data = a @ w
        out_data += bias.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad @ w.T if a.ndim == 2 else w @ grad)
            if weight.requires_grad:
                weight._accumulate(a.T @ grad if a.ndim == 2
                                   else np.outer(a, grad))
            if bias.requires_grad:
                bias._accumulate(_unbroadcast(grad, bias.shape))

        return Tensor(out_data, parents=(self, weight, bias), backward=backward)

    # -- reductions -----------------------------------------------------------------------

    def sum(self, axis: int | tuple[int, ...] | None = None,
            keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor(out_data, parents=(self,), backward=backward)

    def mean(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        count = self.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- nonlinearities ----------------------------------------------------------------------

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return Tensor(out_data, parents=(self,), backward=backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return Tensor(out_data, parents=(self,), backward=backward)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * 0.5 / np.maximum(out_data, 1e-30))

        return Tensor(out_data, parents=(self,), backward=backward)

    def sigmoid(self) -> "Tensor":
        # exp(-x) overflows to inf below x ~ -709, which gives the right
        # limit, 0; only the warning is silenced, so no bit changes.
        with np.errstate(over="ignore"):
            out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor(out_data, parents=(self,), backward=backward)

    def softplus(self) -> "Tensor":
        # Numerically stable: log(1 + exp(x)) = max(x, 0) + log1p(exp(-|x|)).
        out_data = np.maximum(self.data, 0.0) + np.log1p(np.exp(-np.abs(self.data)))
        # The backward factor is sigmoid(x); see :meth:`sigmoid`.
        with np.errstate(over="ignore"):
            sig = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * sig)

        return Tensor(out_data, parents=(self,), backward=backward)

    # -- shape / indexing ---------------------------------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        out_data = self.data.reshape(*shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(self.shape))

        return Tensor(out_data, parents=(self,), backward=backward)

    @property
    def T(self) -> "Tensor":
        out_data = self.data.T

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.T)

        return Tensor(out_data, parents=(self,), backward=backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return Tensor(out_data, parents=(self,), backward=backward)


def as_tensor(value, dtype=None) -> Tensor:
    """Wrap a value as a (non-grad) Tensor; pass tensors through.

    ``dtype`` is the *operand* dtype hint the binary ops supply: a
    scalar (0-d) operand adopts it so that e.g. ``float32_tensor * 0.5``
    stays float32 instead of promoting through a float64 scalar wrap.
    Array operands keep numpy promotion semantics unchanged.
    """
    if isinstance(value, Tensor):
        return value
    arr = np.asarray(value)
    if arr.dtype != np.float32:
        # Same guarded float64 default as Tensor.__init__.
        # repro-lint: disable-next-line=PRE001 -- float32 stays float32
        arr = np.asarray(arr, dtype=np.float64)
    if dtype is not None and arr.ndim == 0 and arr.dtype != dtype:
        arr = arr.astype(dtype)
    return Tensor(arr)
