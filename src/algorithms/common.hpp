// Helpers shared by the clustered and global FL algorithms.
//
// Every method in this repo — FedAvg, FedProx, CFL, IFCA, PACFL, and
// FedClust itself — eventually runs "per-cluster FedAvg" rounds: members
// of each cluster download that cluster's model, train locally and are
// averaged back. Global methods are the one-cluster special case.
#pragma once

#include <vector>

#include "fl/algorithm.hpp"

namespace fedclust::algorithms {

/// One synchronous round of per-cluster FedAvg.
///
/// * samples participants via federation.sample_clients(round);
/// * each sampled client downloads its cluster's model (metered at full
///   model size), trains locally, uploads the result (metered);
/// * each cluster with at least one sampled member is replaced by the
///   sample-weighted average of its members' updates.
///
/// `labels[i]` is client i's cluster; `cluster_weights[c]` that cluster's
/// model, updated in place. Returns the mean training loss across
/// participants.
double per_cluster_fedavg_round(
    fl::Federation& federation, std::size_t round,
    const std::vector<std::size_t>& labels,
    std::vector<std::vector<float>>& cluster_weights,
    const fl::LocalTrainConfig* config_override = nullptr);

/// Replaces each cluster's model with the aggregate of its members'
/// updates: moves the slot-ordered `updates` into their cluster groups
/// (labels[client_id]) and runs federation.aggregate on every non-empty
/// group against that cluster's pre-round model. Clusters without an
/// update keep their model.
void aggregate_by_cluster(fl::Federation& federation,
                          std::vector<fl::ClientUpdate>&& updates,
                          const std::vector<std::size_t>& labels,
                          std::vector<std::vector<float>>& models);

/// Per-client accuracy where each client is evaluated on its cluster's
/// model.
fl::AccuracySummary evaluate_clustered(
    const fl::Federation& federation, const std::vector<std::size_t>& labels,
    const std::vector<std::vector<float>>& cluster_weights);

}  // namespace fedclust::algorithms
