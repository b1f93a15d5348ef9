"""Static node features for the heterogeneous graph."""

from __future__ import annotations

import numpy as np

from repro.netlist.circuit import Circuit
from repro.netlist.devices import Device, DeviceType, MOSFET
from repro.netlist.nets import Net, NetType
from repro.router.guidance import AccessPoint

_NET_TYPES = list(NetType)
_DEVICE_TYPES = list(DeviceType)
_PIN_NAMES = ["G", "D", "S", "PLUS", "MINUS"]


def ap_features(
    ap: AccessPoint, net: Net, circuit: Circuit, extent: tuple[float, float, float]
) -> np.ndarray:
    """Feature vector of one access point."""
    net_onehot = np.zeros(len(_NET_TYPES))
    net_onehot[_NET_TYPES.index(net.net_type)] = 1.0

    pin_onehot = np.zeros(len(_PIN_NAMES) + 1)
    if ap.pin in _PIN_NAMES:
        pin_onehot[_PIN_NAMES.index(ap.pin)] = 1.0
    else:
        pin_onehot[-1] = 1.0

    nx, ny, nl = extent
    ix, iy, layer = ap.cell
    symmetric = (
        1.0
        if net.self_symmetric or circuit.symmetry_pair_of(net.name) is not None
        else 0.0
    )
    scalars = np.array([
        ix / nx,
        iy / ny,
        layer / nl,
        min(net.degree, 16) / 16.0,
        net.weight / 4.0,
        symmetric,
    ])
    return np.concatenate([net_onehot, pin_onehot, scalars])


def module_features(
    device: Device, position: tuple[float, float], extent: tuple[float, float, float]
) -> np.ndarray:
    """Feature vector of one module (placed device)."""
    type_onehot = np.zeros(len(_DEVICE_TYPES))
    type_onehot[_DEVICE_TYPES.index(device.device_type)] = 1.0

    nx, ny, _ = extent
    current = device.bias_current if isinstance(device, MOSFET) else 0.0
    scalars = np.array([
        position[0] / nx,
        position[1] / ny,
        device.width / 20.0,
        device.height / 20.0,
        np.log10(max(current, 1e-9)) / 9.0 + 1.0,
        len(device.pins) / 8.0,
    ])
    return np.concatenate([type_onehot, scalars])
