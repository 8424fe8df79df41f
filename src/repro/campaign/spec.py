"""The declarative experiment-spec layer: spec file -> trial matrix.

A campaign used to be one :class:`~repro.campaign.trial.CampaignSpec`
plus a trial count, assembled ad hoc by whoever called
:func:`~repro.campaign.runner.run_campaign`.  This module makes the
experiment itself a declarative, serializable object (in the style of
erdos-scheduling-simulator's ``experiments`` module): an
:class:`ExperimentSpec` names a **base** parameter set, optional sweep
**axes** (expanded as a cartesian product) or explicit named **configs**,
and a per-config trial count -- and :meth:`ExperimentSpec.expand` turns
it into a :class:`TrialMatrix`, the flat, deterministically ordered list
of :class:`TrialTask` s a scheduler executes.

Everything downstream hangs off two properties of the expansion:

* **location independence** -- each config's ``root_seed`` is derived
  hierarchically (:func:`repro.campaign.seeds.derive_seed` over the
  experiment root and the config name), so ``(config, trial_id)``
  determines a trial completely no matter which process, machine, or
  resumed run executes it;
* **identity** -- :attr:`TrialMatrix.matrix_digest` is a SHA-256 over
  the canonical JSON of the expanded configuration, so a resumed run
  (or a third party holding a stamped artifact) can prove it is talking
  about the *same* experiment before trusting any journal.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections.abc import Mapping, Sequence
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.campaign.faults import ChurnRates, FaultRates
from repro.campaign.seeds import derive_seed
from repro.campaign.trial import CampaignSpec
from repro.durable import canonical_json
from repro.recovery import RecoveryConfig

#: Parameter names :func:`build_campaign_spec` understands.  Anything
#: else in a spec file is a typo; expansion refuses it loudly.
SPEC_PARAMS = frozenset(
    {
        "algorithm",
        "n",
        "root_seed",
        "theta",
        "bare",
        "fault_start",
        "fault_stop",
        "fault_scale",
        "churn_scale",
        "downtime",
        "heal_after",
        "recovery",
        "stall_window",
        "confirm_window",
        "max_steps",
        "deliver_bias",
        "think_delay",
        "eat_delay",
        "digest_every",
        "trials",
    }
)


def build_campaign_spec(params: Mapping[str, object]) -> CampaignSpec:
    """A :class:`CampaignSpec` from flat declarative parameters.

    The flat names mirror the campaign CLI flags (``fault_scale`` scales
    the standard :class:`FaultRates`, ``churn_scale > 0`` switches churn
    on, ``recovery`` defaults to "on iff churn is on", ``bare`` beats
    ``theta``), so a spec file reads like the command line it replaces.
    """
    unknown = set(params) - SPEC_PARAMS
    if unknown:
        raise ValueError(
            f"unknown campaign spec parameter(s): {sorted(unknown)}"
        )
    get = params.get
    churn_scale = float(get("churn_scale", 0.0) or 0.0)
    churn = None
    if churn_scale > 0:
        churn = ChurnRates(
            downtime=int(get("downtime", 40)),
            heal_after=int(get("heal_after", 60)),
        ).scaled(churn_scale)
    with_recovery = get("recovery")
    if with_recovery is None:
        with_recovery = churn is not None
    recovery = (
        RecoveryConfig(stall_window=get("stall_window"))
        if with_recovery
        else None
    )
    theta = None if get("bare") else get("theta", 4)
    return CampaignSpec(
        algorithm=str(get("algorithm", "ra")),
        n=int(get("n", 8)),
        root_seed=int(get("root_seed", 0)),
        theta=None if theta is None else int(theta),
        fault_start=int(get("fault_start", 40)),
        fault_stop=int(get("fault_stop", 160)),
        rates=FaultRates().scaled(float(get("fault_scale", 1.0))),
        confirm_window=get("confirm_window"),
        max_steps=get("max_steps"),
        deliver_bias=float(get("deliver_bias", 2.0)),
        think_delay=int(get("think_delay", 2)),
        eat_delay=int(get("eat_delay", 1)),
        digest_every=int(get("digest_every", 64)),
        churn=churn,
        recovery=recovery,
    )


@dataclass(frozen=True)
class TrialTask:
    """One schedulable unit of work: run ``trial_id`` of one config.

    ``task_id`` is the task's dense index in matrix order -- the journal
    key, the lease key, and the position of its row in the artifact.
    """

    task_id: int
    config: str
    spec: CampaignSpec
    trial_id: int


@dataclass(frozen=True)
class TrialMatrix:
    """The fully expanded experiment: named configs and ordered tasks."""

    name: str
    configs: tuple[tuple[str, CampaignSpec], ...]
    trials: tuple[tuple[str, int], ...]  # (config name, trial count)
    tasks: tuple[TrialTask, ...]

    def __len__(self) -> int:
        return len(self.tasks)

    def config_specs(self) -> dict[str, CampaignSpec]:
        return dict(self.configs)

    @property
    def matrix_digest(self) -> str:
        """SHA-256 identity of the expanded experiment.

        Covers the experiment name, every config's full
        :class:`CampaignSpec` (dataclass-serialized), and the per-config
        trial counts -- everything that determines every trial -- so two
        runs with equal digests execute bit-identical work.
        """
        payload = {
            "name": self.name,
            "configs": {
                name: asdict(spec) for name, spec in self.configs
            },
            "trials": dict(self.trials),
        }
        raw = canonical_json(payload).encode("utf-8")
        return "sha256:" + hashlib.sha256(raw).hexdigest()

    def describe(self) -> str:
        parts = [
            f"{name} x{count}" for name, count in self.trials
        ]
        return (
            f"{self.name}: {len(self.tasks)} trials over "
            f"{len(self.configs)} config(s) ({', '.join(parts)})"
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative campaign experiment, before expansion.

    Exactly one of three shapes:

    * base only -- a single config named ``"default"``;
    * ``axes`` -- cartesian product of the axis values over the base
      (config names are ``"axis=value,..."`` in sorted-axis order);
    * ``configs`` -- explicit name -> parameter-override mapping.
    """

    name: str = "campaign"
    root_seed: int = 0
    trials: int = 100
    base: Mapping[str, object] = field(default_factory=dict)
    axes: Mapping[str, Sequence[object]] = field(default_factory=dict)
    configs: Mapping[str, Mapping[str, object]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.trials < 0:
            raise ValueError("trials must be non-negative")
        if self.axes and self.configs:
            raise ValueError("give either axes or configs, not both")

    def _config_params(self) -> list[tuple[str, dict[str, object]]]:
        if self.configs:
            return [
                (name, {**self.base, **dict(overrides)})
                for name, overrides in self.configs.items()
            ]
        if self.axes:
            names = sorted(self.axes)
            combos = itertools.product(
                *(list(self.axes[axis]) for axis in names)
            )
            out = []
            for values in combos:
                label = ",".join(
                    f"{axis}={value}"
                    for axis, value in zip(names, values)
                )
                params = dict(self.base)
                params.update(dict(zip(names, values)))
                out.append((label, params))
            return out
        return [("default", dict(self.base))]

    def expand(self) -> TrialMatrix:
        """The deterministic trial matrix of this experiment.

        Config order is definition order (explicit configs) or sorted
        cartesian order (axes); tasks enumerate each config's trials
        contiguously.  Each config's ``root_seed`` is derived from the
        experiment root and the config *name* unless the config pins one
        explicitly, so sibling configs draw independent RNG streams.
        """
        configs: list[tuple[str, CampaignSpec]] = []
        trials: list[tuple[str, int]] = []
        tasks: list[TrialTask] = []
        for name, params in self._config_params():
            count = int(params.pop("trials", self.trials))
            if count < 0:
                raise ValueError(f"config {name!r}: trials must be >= 0")
            if "root_seed" not in params:
                params["root_seed"] = derive_seed(
                    self.root_seed, "config", name
                )
            spec = build_campaign_spec(params)
            configs.append((name, spec))
            trials.append((name, count))
        for name, spec in configs:
            count = dict(trials)[name]
            for trial_id in range(count):
                tasks.append(
                    TrialTask(
                        task_id=len(tasks),
                        config=name,
                        spec=spec,
                        trial_id=trial_id,
                    )
                )
        return TrialMatrix(
            name=self.name,
            configs=tuple(configs),
            trials=tuple(trials),
            tasks=tuple(tasks),
        )


def single_spec_matrix(
    spec: CampaignSpec, trials: int, name: str = "campaign"
) -> TrialMatrix:
    """The one-config matrix of a pre-built :class:`CampaignSpec`.

    The compatibility path for callers that never touch spec files
    (:func:`repro.campaign.runner.run_campaign`): the spec's own
    ``root_seed`` is used untouched, so ``task_id == trial_id`` and
    digests match the historical single-spec campaigns exactly.
    """
    if trials < 0:
        raise ValueError("trials must be non-negative")
    tasks = tuple(
        TrialTask(task_id=i, config="default", spec=spec, trial_id=i)
        for i in range(trials)
    )
    return TrialMatrix(
        name=name,
        configs=(("default", spec),),
        trials=(("default", trials),),
        tasks=tasks,
    )


def parse_experiment_spec(payload: Mapping[str, object]) -> ExperimentSpec:
    """An :class:`ExperimentSpec` from a decoded spec-file mapping."""
    known = {"name", "root_seed", "trials", "base", "axes", "configs"}
    unknown = set(payload) - known
    if unknown:
        raise ValueError(
            f"unknown experiment spec key(s): {sorted(unknown)}"
        )
    return ExperimentSpec(
        name=str(payload.get("name", "campaign")),
        root_seed=int(payload.get("root_seed", 0)),
        trials=int(payload.get("trials", 100)),
        base=dict(payload.get("base", {})),
        axes={
            str(k): list(v) for k, v in dict(payload.get("axes", {})).items()
        },
        configs={
            str(k): dict(v)
            for k, v in dict(payload.get("configs", {})).items()
        },
    )


def load_experiment_spec(path: str | Path) -> ExperimentSpec:
    """Read and validate a JSON experiment spec file."""
    raw = Path(path).read_text(encoding="utf-8")
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: spec must be a JSON object")
    return parse_experiment_spec(payload)
