"""A long-running daemon keeps no state per client clock.

Every request may name its own ``node``/``freq``; ``serve_mixed``-style
traffic sends a never-seen context in a tenth of its requests.  The app
builds a fresh ``ModelContext`` per request (contexts compare by value,
so pool warmth and cache keys do not change), and the batch layer's
substrate cache evicts its least recently used entry past a fixed size.
"""

from __future__ import annotations

from repro.arch.chip import shape_of
from repro.batch import substrate as substrate_mod
from repro.config.presets import datacenter_design_point
from repro.serve.app import ServeApp, ServeConfig

CLOCKS = 500


def _collection_sizes(app: ServeApp) -> dict:
    return {
        name: len(value)
        for name, value in vars(app).items()
        if isinstance(value, (dict, list, set))
    }


def test_distinct_clocks_leave_no_per_context_state():
    app = ServeApp(ServeConfig(port=0, jobs=1))
    try:
        before = _collection_sizes(app)
        shape = shape_of(datacenter_design_point(16, 1, 2, 2).config)
        for step in range(CLOCKS):
            ctx = app._context({"freq": 0.5 + step * 1e-3})
            assert ctx == app._context({"freq": 0.5 + step * 1e-3})
            substrate_mod.substrate_for(ctx, shape)
        assert _collection_sizes(app) == before
        assert (
            len(substrate_mod._SUBSTRATES) <= substrate_mod.MAX_SUBSTRATES
        )
    finally:
        app.close()
