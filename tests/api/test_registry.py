"""Registry behaviour: lookups, helpful errors, duplicate protection."""

import pytest

from repro.api.registry import (
    DRIVES,
    LAYOUTS,
    Registry,
    build_mapper,
    drive_names,
    get_drive,
    get_layout,
    layout_names,
    register_drive,
    register_layout,
)
from repro.core.multimap import MultiMapMapper
from repro.disk.models import DiskModel
from repro.errors import RegistryError
from repro.lvm.volume import LogicalVolume
from repro.mappings import NaiveMapper


class TestPopulation:
    def test_all_paper_layouts_registered(self):
        assert set(layout_names()) >= {
            "naive", "zorder", "hilbert", "gray", "multimap"
        }

    def test_paper_drives_registered(self):
        assert set(drive_names()) >= {"atlas10k3", "cheetah36es", "toy"}

    def test_layout_entries_carry_classes(self):
        assert get_layout("naive").cls is NaiveMapper
        assert get_layout("multimap").cls is MultiMapMapper
        assert get_layout("multimap").wiring == "volume"
        assert get_layout("naive").wiring == "extent"

    def test_drive_factories_build_models(self):
        model = get_drive("atlas10k3").factory()
        assert isinstance(model, DiskModel)
        assert "Atlas" in model.name

    def test_entries_have_descriptions(self):
        for name in layout_names():
            assert get_layout(name).description

    def test_dunder_helpers(self):
        assert "multimap" in LAYOUTS
        assert "atlas10k3" in DRIVES
        assert len(LAYOUTS) >= 5
        assert list(iter(LAYOUTS)) == sorted(list(iter(LAYOUTS)))


class TestErrors:
    def test_unknown_layout_lists_valid_keys(self):
        with pytest.raises(RegistryError) as exc:
            get_layout("bogus")
        msg = str(exc.value)
        assert "bogus" in msg
        for name in layout_names():
            assert name in msg

    def test_unknown_drive_lists_valid_keys(self):
        with pytest.raises(RegistryError) as exc:
            get_drive("floppy")
        msg = str(exc.value)
        assert "floppy" in msg
        for name in drive_names():
            assert name in msg

    def test_duplicate_layout_registration_raises(self):
        class Impostor:
            """Not the registered naive mapper."""

        with pytest.raises(RegistryError, match="already registered"):
            register_layout("naive")(Impostor)

    def test_duplicate_drive_registration_raises(self):
        with pytest.raises(RegistryError, match="already registered"):
            register_drive("atlas10k3")(lambda: None)

    def test_bad_wiring_rejected(self):
        with pytest.raises(RegistryError):
            register_layout("x", wiring="telepathy")

    def test_empty_name_rejected(self):
        reg = Registry("thing")
        with pytest.raises(RegistryError):
            reg.add("", object())


class TestCollisionBeforeFirstLookup:
    def test_user_collision_fails_at_decorator_without_poisoning(self):
        """In a fresh process, a third-party registration colliding with a
        builtin must fail at its own decorator, leaving the registries
        usable for every other name."""
        import os
        import subprocess
        import sys

        import repro

        code = (
            "from repro.api.registry import register_layout, get_layout\n"
            "from repro.errors import RegistryError\n"
            "try:\n"
            "    @register_layout('multimap')\n"
            "    class Mine: pass\n"
            "except RegistryError as e:\n"
            "    assert 'already registered' in str(e), e\n"
            "else:\n"
            "    raise SystemExit('collision not detected')\n"
            "assert get_layout('naive').name == 'naive'\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__
        )))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr


class TestPopulationRecovery:
    def test_reregistration_of_same_definition_is_idempotent(self):
        """A module re-executing after an interrupted import re-registers
        its entries without tripping the duplicate check."""

        class Fake:
            """Stand-in produced by a re-executed defining module."""

        Fake.__module__ = NaiveMapper.__module__
        Fake.__qualname__ = NaiveMapper.__qualname__
        register_layout("naive")(Fake)
        try:
            assert get_layout("naive").cls is Fake
        finally:
            register_layout("naive")(NaiveMapper)  # restore, same path
        assert get_layout("naive").cls is NaiveMapper

    def test_population_retries_after_failed_attempt(self):
        """A failed first attempt resets the flag; the next lookup
        repopulates instead of reporting empty registries."""
        from repro.api import registry as regmod

        regmod._populated = False  # as the except path leaves it
        assert set(layout_names()) >= {"naive", "multimap"}
        assert regmod._populated is True


class TestSharedModels:
    def test_datasets_share_the_registered_model(self):
        """Every member disk of every dataset that names a drive, across
        rebuilds and layout clones, holds the drive's one model; calling
        the factory still builds a fresh one."""
        from repro.api import Dataset
        from repro.disk.models import mini_drive

        entry = get_drive("minidrive")
        ds = Dataset.create((16, 8, 8), layout="multimap",
                            drive="minidrive").with_shards(
            2, "cube_aligned")
        clone = ds.with_layout("naive")
        models = ds.volume.models + clone.volume.models
        assert len(models) == 4
        assert all(m is entry.model for m in models)
        assert entry.factory() is not entry.model
        assert mini_drive() is not mini_drive()


class TestFreshRegistry:
    def test_independent_of_globals(self):
        reg = Registry("gadget")
        reg.add("a", 1)
        assert reg.get("a") == 1
        with pytest.raises(RegistryError):
            reg.add("a", 2)


class TestBuildMapper:
    def test_accepts_name_or_entry(self, small_model):
        dims = (8, 4, 4)
        by_name = build_mapper(
            "naive", dims, LogicalVolume([small_model], depth=16)
        )
        by_entry = build_mapper(
            get_layout("naive"), dims,
            LogicalVolume([small_model], depth=16),
        )
        assert by_name.extent == by_entry.extent

    def test_unknown_name_raises(self, small_model):
        with pytest.raises(RegistryError):
            build_mapper(
                "bogus", (4, 4), LogicalVolume([small_model], depth=16)
            )


class TestNonStringNames:
    """A registry lookup refuses a non-string name with
    :class:`RegistryError`, the class an unknown name raises (an
    unhashable one used to raise a bare ``TypeError``), and a dataset
    method that refuses it changes nothing."""

    @staticmethod
    def sharded(small_model):
        from repro.api import Dataset

        return Dataset.create((16, 8, 8), layout="naive",
                              drive=small_model, seed=1).with_shards(2)

    @pytest.mark.parametrize("name", [["naive"], {"naive": 1}])
    def test_get(self, name):
        with pytest.raises(RegistryError, match="unknown layout"):
            LAYOUTS.get(name)

    def test_with_shards_strategy_list(self, small_model):
        ds = self.sharded(small_model)
        storage = ds.storage
        with pytest.raises(RegistryError, match="unknown strategy"):
            ds.with_shards(2, strategy=["disk_modulo"])
        assert ds.storage is storage

    def test_with_replication_placement_list(self, small_model):
        ds = self.sharded(small_model)
        with pytest.raises(RegistryError, match="unknown placement"):
            ds.with_replication(2, placement=["rotated"])
        assert not ds.is_replicated

    def test_with_replication_read_policy_list(self, small_model):
        ds = self.sharded(small_model)
        with pytest.raises(RegistryError, match="unknown read policy"):
            ds.with_replication(2, read_policy=["primary"])
        assert not ds.is_replicated

    def test_with_ingest_loader_int(self, small_model):
        # used to be accepted until a run started
        ds = self.sharded(small_model)
        with pytest.raises(RegistryError, match="unknown loader"):
            ds.with_ingest(loader=5)
        assert ds._ingest_spec is None
