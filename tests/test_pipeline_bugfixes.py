"""Regression tests for the pipeline skip/config/sampler bugfixes.

Each of these fails on the pre-fix code: skipping stages used to mutate
the caller's config, index-stage skips were validated but silently
ignored, every ``DiscoverySystem.__init__`` clobbered the process-wide
trace sampler, and querying an engine whose stage was skipped raised an
``AttributeError`` on ``None`` instead of a :class:`LakeError`.
"""

import logging

import pytest

from repro.core.config import DiscoveryConfig
from repro.core.engine import REGISTRY, QueryRequest
from repro.core.errors import LakeError
from repro.core.system import DiscoverySystem
from repro.obs import SAMPLER

#: Every query-serving engine: the search engines and navigation.
SERVING = [cls.name for cls in REGISTRY.all()]

#: Engines that stay unbuilt when their stage runs without its input
#: (embeddings disabled, no ontology), i.e. that declare ``unavailable``.
DISABLED_INPUT = [cls.name for cls in REGISTRY.all() if cls.unavailable]


@pytest.fixture
def restore_sampler():
    rate, slow_ms = SAMPLER.rate, SAMPLER.slow_ms
    yield
    SAMPLER.configure(rate=rate, slow_ms=slow_ms)


class TestConfigNotMutated:
    def test_skip_leaves_caller_config_unchanged(self, tiny_lake):
        config = DiscoveryConfig(embedding_dim=16, embedding_min_count=1)
        DiscoverySystem(tiny_lake, config).build(
            skip={"embeddings", "domains", "annotation"}
        )
        assert config.enable_embeddings is True
        assert config.enable_annotation is True
        assert config.enable_domains is False  # the dataclass default

    def test_skip_still_takes_effect(self, tiny_lake):
        system = DiscoverySystem(
            tiny_lake, DiscoveryConfig(embedding_dim=16)
        ).build(skip={"embeddings"})
        assert "embeddings" not in system.stats.stage_seconds
        assert system.space is None


@pytest.fixture
def all_skipped(tiny_lake):
    """A system built with every index stage skipped."""
    index_stages = {cls.stage for cls in REGISTRY.all()}
    return DiscoverySystem(
        tiny_lake, DiscoveryConfig(enable_embeddings=False)
    ).build(skip=index_stages)


@pytest.fixture
def no_inputs(tiny_lake):
    """Every stage runs, but without embeddings or an ontology."""
    return DiscoverySystem(
        tiny_lake, DiscoveryConfig(enable_embeddings=False)
    ).build()


def request_for(lake) -> QueryRequest:
    """A request every serving engine accepts."""
    table = lake.table(lake.table_names()[0])
    return QueryRequest(
        text="anything",
        table=table,
        column=table.columns[0],
        key_columns=(0,),
        key_column=0,
        value_column=1,
    )


class TestIndexStageSkips:
    def test_skipped_index_stages_not_built(self, tiny_lake):
        system = DiscoverySystem(
            tiny_lake, DiscoveryConfig(enable_embeddings=False)
        ).build(skip={"keyword_index", "mate_index", "correlation_index"})
        assert system.engines["keyword"].raw is None
        assert system.engines["mate"].raw is None
        assert system.engines["qcr"].raw is None
        assert "keyword_index" not in system.stats.stage_seconds
        # Non-skipped stages still ran.
        assert system.engines["josie"].raw is not None

    @pytest.mark.parametrize("name", SERVING)
    def test_skipped_engines_raise_lake_error(
        self, all_skipped, tiny_lake, name
    ):
        stage = REGISTRY.get(name).stage
        with pytest.raises(LakeError, match=f"{stage}.*skipped.*{name}"):
            all_skipped.query(name, request_for(tiny_lake))

    @pytest.mark.parametrize("name", DISABLED_INPUT)
    def test_disabled_input_names_the_reason(
        self, no_inputs, tiny_lake, name
    ):
        reason = REGISTRY.get(name).unavailable
        with pytest.raises(LakeError, match=f"^{reason}: {name} unavailable"):
            no_inputs.query(name, request_for(tiny_lake))

    def test_facade_methods_raise_for_skipped_stages(
        self, all_skipped, tiny_lake
    ):
        from repro.datalake.table import ColumnRef

        table = tiny_lake.table_names()[0]
        for call, stage in [
            (lambda: all_skipped.keyword_search("x"), "keyword_index"),
            (
                lambda: all_skipped.joinable_search(ColumnRef(table, 0)),
                "join_index",
            ),
            (
                lambda: all_skipped.unionable_search(table, method="tus"),
                "union_index",
            ),
            (
                lambda: all_skipped.correlated_search(table, 0, 1),
                "correlation_index",
            ),
            (
                lambda: all_skipped.multi_attribute_search(
                    tiny_lake.table(table), [0]
                ),
                "mate_index",
            ),
            (all_skipped.organization, "navigation"),
            (lambda: all_skipped.navigate("x"), "navigation"),
            (lambda: all_skipped.explore_results([table]), "navigation"),
        ]:
            with pytest.raises(LakeError, match=f"{stage}.*skipped"):
                call()

    def test_unknown_skip_still_rejected(self, tiny_lake):
        with pytest.raises(ValueError):
            DiscoverySystem(tiny_lake).build(skip={"warp-drive"})


class TestSamplerNotClobbered:
    def test_default_config_preserves_existing_sampler(
        self, tiny_lake, restore_sampler
    ):
        DiscoverySystem(
            tiny_lake,
            DiscoveryConfig(trace_sample_rate=0.5, slow_query_ms=100.0),
        )
        assert SAMPLER.rate == 0.5
        assert SAMPLER.slow_ms == 100.0
        # A second system with a *default* config must not clobber it.
        DiscoverySystem(tiny_lake)
        assert SAMPLER.rate == 0.5
        assert SAMPLER.slow_ms == 100.0

    def test_non_default_config_still_applies(self, tiny_lake, restore_sampler):
        SAMPLER.configure(rate=1.0, slow_ms=None)
        DiscoverySystem(
            tiny_lake,
            DiscoveryConfig(trace_sample_rate=0.25, slow_query_ms=50.0),
        )
        assert SAMPLER.rate == 0.25
        assert SAMPLER.slow_ms == 50.0

    def test_overwrite_warns(self, tiny_lake, restore_sampler, caplog):
        DiscoverySystem(
            tiny_lake,
            DiscoveryConfig(trace_sample_rate=0.5, slow_query_ms=100.0),
        )
        with caplog.at_level(logging.WARNING, logger="repro.core.system"):
            DiscoverySystem(
                tiny_lake,
                DiscoveryConfig(trace_sample_rate=0.25, slow_query_ms=75.0),
            )
        assert any("sampler" in r.message for r in caplog.records)
        assert SAMPLER.rate == 0.25

    def test_reapplying_same_config_does_not_warn(
        self, tiny_lake, restore_sampler, caplog
    ):
        cfg = DiscoveryConfig(trace_sample_rate=0.5, slow_query_ms=100.0)
        DiscoverySystem(tiny_lake, cfg)
        with caplog.at_level(logging.WARNING, logger="repro.core.system"):
            DiscoverySystem(tiny_lake, cfg)
        assert not any("sampler" in r.message for r in caplog.records)
