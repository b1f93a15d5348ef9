"""Compliant with OBS002: literal dotted lowercase span names."""


def trace(obs, net, seconds):
    with obs.span("route.net", net=net):
        pass
    with obs.span("stage.guided_routing"):
        pass
    obs.emit_span("relax.restart", seconds, outcome="ok")
