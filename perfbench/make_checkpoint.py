"""Regenerate the trained-checkpoint fixture with the acceptance recipe.

The recipe is the one the acceptance suite trains for criteria 4-6:
the seed-101 dataset (250 10x10 maps, 0.8/0.2 split), `TrainConfig(seed=0)`
and `ModelConfig()`. With one BLAS thread and serial label generation the
result is deterministic. Run from the repository root (about seven minutes
on a 2-vCPU machine):

    python3 perfbench/make_checkpoint.py

It prints the checkpoint's sha256, which belongs in the `--ckpt-sha256`
argument of the benchmark command in BENCHMARK.json.
"""

import launch

launch.pin_environment()

from cppnet.model import save_checkpoint  # noqa: E402
from cppnet.scenario import dataset_build  # noqa: E402
from cppnet.train import train  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    sset = dataset_build(*workloads.TRAIN_SET_ARGS, seed=workloads.TRAIN_SET_SEED)
    params, _ = train(sset, workloads.recipe_train_config(), workloads.recipe_model_config(),
                      log=print)
    workloads.CHECKPOINT.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(params, workloads.CHECKPOINT)
    print(workloads.file_sha256(workloads.CHECKPOINT))


if __name__ == "__main__":
    main()
