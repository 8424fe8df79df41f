"""Unit tests for the Lspec interface: tuple-maps, adapters, graybox view."""

import pytest

from repro.clocks import Timestamp
from repro.dsl import LocalView
from repro.tme import (
    GrayboxAccessError,
    GrayboxView,
    LspecView,
    THINKING,
    adapter_for,
    explicit_adapter,
    initial_lspec_vars,
    register_adapter,
    tmap,
    tmap_as_dict,
    tmap_get,
    tmap_set,
)


class TestTmap:
    def test_roundtrip(self):
        frozen = tmap({"b": 2, "a": 1})
        assert frozen == (("a", 1), ("b", 2))
        assert tmap_as_dict(frozen) == {"a": 1, "b": 2}

    def test_get(self):
        assert tmap_get(tmap({"a": 1}), "a") == 1
        with pytest.raises(KeyError):
            tmap_get(tmap({"a": 1}), "z")

    def test_set_preserves_sorting(self):
        frozen = tmap({"a": 1, "b": 2})
        assert tmap_set(frozen, "b", 9) == (("a", 1), ("b", 9))

    def test_set_unknown_key_raises(self):
        with pytest.raises(KeyError):
            tmap_set(tmap({"a": 1}), "z", 0)

    def test_hashable(self):
        hash(tmap({"a": Timestamp(1, "a")}))


class TestInitialVars:
    def test_paper_init(self):
        init = initial_lspec_vars("p0", ("p0", "p1", "p2"))
        assert init["phase"] == THINKING
        assert init["lc"] == 0
        assert init["req"] == Timestamp(0, "p0")
        assert tmap_as_dict(init["req_of"]) == {
            "p1": Timestamp(0, "p1"),
            "p2": Timestamp(0, "p2"),
        }
        assert all(not v for v in tmap_as_dict(init["received"]).values())


class TestLspecView:
    def test_requires_all_fields(self):
        with pytest.raises(ValueError):
            LspecView(phase="t", lc=0, req=Timestamp(0, "p"), req_of={})

    def test_rejects_strays(self):
        with pytest.raises(ValueError):
            LspecView(
                phase="t",
                lc=0,
                req=Timestamp(0, "p"),
                req_of={},
                received={},
                queue=(),
            )

    def test_attribute_access(self):
        view = LspecView(
            phase="h", lc=1, req=Timestamp(1, "p"), req_of={}, received={}
        )
        assert view.phase == "h" and view.lc == 1


class TestExplicitAdapter:
    def test_passes_through_clean_state(self):
        variables = initial_lspec_vars("p0", ("p0", "p1"))
        view = explicit_adapter(variables, "p0", ("p1",))
        assert view.phase == THINKING
        assert view.req_of["p1"] == Timestamp(0, "p1")

    def test_sanitizes_garbage(self):
        variables = {
            "phase": "???",
            "lc": -3,
            "req": "junk",
            "req_of": tmap({"p1": "junk"}),
            "received": tmap({"p1": 1}),
        }
        view = explicit_adapter(variables, "p0", ("p1",))
        assert view.phase == THINKING
        assert view.lc == 0
        assert view.req == Timestamp(0, "p0")
        assert view.req_of["p1"] == Timestamp(0, "p1")
        assert view.received["p1"] is True

    def test_missing_vars_defaulted(self):
        view = explicit_adapter({}, "p0", ("p1",))
        assert view.req == Timestamp(0, "p0")


class TestAdapterRegistry:
    def test_default_is_explicit(self):
        assert adapter_for("SomeUnknownProgram") is explicit_adapter

    def test_registration(self):
        marker = lambda v, p, peers: explicit_adapter(v, p, peers)  # noqa: E731
        register_adapter("TestProgramXYZ", marker)
        assert adapter_for("TestProgramXYZ") is marker

    def test_lamport_registered_on_import(self):
        import repro.tme.lamport_me  # noqa: F401

        assert adapter_for("Lamport_ME") is not explicit_adapter


class TestGrayboxView:
    def view(self, **extra):
        return GrayboxView(
            LocalView(
                {
                    "phase": "h",
                    "lc": 1,
                    "req": Timestamp(1, "p0"),
                    "req_of": tmap({"p1": Timestamp(0, "p1")}),
                    "received": tmap({"p1": False}),
                    "queue": ("secret",),
                    "w_timer": 0,
                    "_pid": "p0",
                    **extra,
                }
            )
        )

    def test_lspec_variables_readable(self):
        view = self.view()
        assert view.phase == "h"
        assert view["req"] == Timestamp(1, "p0")
        assert view.w_timer == 0
        assert view._pid == "p0"

    def test_private_variables_blocked(self):
        with pytest.raises(GrayboxAccessError):
            self.view().queue
        with pytest.raises(GrayboxAccessError):
            self.view()["think_timer"]

    def test_private_variables_rejected_over_an_adopted_view(self):
        """The runtime hands out adopted views (``ProcessRuntime.view``)."""
        view = GrayboxView(
            LocalView.adopt({"phase": "h", "queue": ("secret",), "_pid": "p0"})
        )
        assert view.phase == "h" and view["_pid"] == "p0"
        with pytest.raises(GrayboxAccessError):
            view.queue
        with pytest.raises(GrayboxAccessError):
            view["queue"]
        with pytest.raises(GrayboxAccessError):
            view.as_dict

    def test_access_recorded(self):
        view = self.view()
        view.phase
        view.req
        assert view.accessed == {"phase", "req"}

    def test_read_only(self):
        with pytest.raises(AttributeError):
            self.view().phase = "t"
