// gansec.model.v1 serializers for the trained-object zoo.
//
// Three object kinds cover the train-once/serve-many lifecycle:
//
//   "mlp"          one network: layer structure in attrs, weights (incl.
//                  BatchNorm running stats and Dropout mask-RNG cursors)
//                  as aligned tensors;
//   "cgan"         topology + generator + discriminator — the Algorithm 2
//                  deliverable the serving path loads;
//   "cgan_trainer" a "cgan" plus the full training state (TrainConfig,
//                  minibatch/noise RNG cursor, Adam/Momentum moments,
//                  iteration counter) so training resumes bit-identically
//                  to an uninterrupted run.
//
// Every load validates structure and checksums via CheckpointReader and
// throws typed gansec::Error on any defect.
#pragma once

#include <string>

#include "gansec/gan/trainer.hpp"
#include "gansec/model/checkpoint.hpp"

namespace gansec::model {

// -- Mlp ---------------------------------------------------------------

/// Records `mlp` into `writer` under tensor names `<prefix>l<i>.<param>`
/// and a `<prefix>layers` structure attr. Used directly by the cgan
/// serializers ("g." / "d." prefixes).
void add_mlp(CheckpointWriter& writer, const nn::Mlp& mlp,
             const std::string& prefix);

/// Rebuilds a network recorded by add_mlp with the same prefix.
nn::Mlp read_mlp(const CheckpointReader& reader, const std::string& prefix);

void save_mlp_checkpoint(const nn::Mlp& mlp, const std::string& path);
nn::Mlp load_mlp_checkpoint(const CheckpointReader& reader);
nn::Mlp load_mlp_checkpoint_file(const std::string& path);

// -- Cgan --------------------------------------------------------------

/// Builds the complete "cgan" writer (topology attrs + both networks);
/// callers may add provenance seeds before writing.
CheckpointWriter make_cgan_writer(const gan::Cgan& model);

void save_cgan_checkpoint(const gan::Cgan& model, const std::string& path);
/// Accepts both "cgan" and "cgan_trainer" checkpoints (a resume snapshot
/// is a superset of a serving model).
gan::Cgan load_cgan_checkpoint(const CheckpointReader& reader);
gan::Cgan load_cgan_checkpoint_file(const std::string& path);

// -- Trainer resume ----------------------------------------------------

/// Persists the trainer's model plus everything needed to continue
/// training bit-identically: TrainConfig, the trainer RNG cursor, both
/// optimizers' moments, and the iteration counter.
void save_trainer_checkpoint(const gan::CganTrainer& trainer,
                             const std::string& path);

/// The TrainConfig recorded in a "cgan_trainer" checkpoint.
gan::TrainConfig read_train_config(const CheckpointReader& reader);

/// Overwrites `trainer`'s RNG cursor, optimizer moments and iteration
/// counter from the checkpoint. The trainer must have been constructed
/// around the checkpoint's model with the checkpoint's TrainConfig:
///
///   auto reader = CheckpointReader::from_file(path);
///   gan::Cgan model = load_cgan_checkpoint(reader);
///   gan::CganTrainer trainer(model, read_train_config(reader));
///   restore_trainer_state(trainer, reader);
///
/// Throws ParseError when the checkpoint's optimizer state does not match
/// the trainer's optimizer kind or parameter shapes.
void restore_trainer_state(gan::CganTrainer& trainer,
                           const CheckpointReader& reader);

}  // namespace gansec::model
