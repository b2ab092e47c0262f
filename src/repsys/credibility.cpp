#include "repsys/credibility.h"

#include <stdexcept>

namespace hpr::repsys {

double CredibilityWeightedTrust::evaluate(
    std::span<const Feedback> feedbacks,
    const std::map<EntityId, double>& credibility, const CredibilityConfig& config) {
    double weight = 0.0;
    double weighted_good = 0.0;
    for (const Feedback& f : feedbacks) {
        const auto it = credibility.find(f.client);
        const double w =
            it == credibility.end() ? config.default_credibility : it->second;
        weight += w;
        if (f.good()) weighted_good += w;
    }
    return weight <= 0.0 ? config.prior : weighted_good / weight;
}

std::map<EntityId, double> CredibilityWeightedTrust::compute(
    const FeedbackStore& store, CredibilityConfig config) {
    if (config.iterations == 0) {
        throw std::invalid_argument(
            "CredibilityWeightedTrust: need at least one iteration");
    }
    if (!(config.default_credibility >= 0.0 && config.default_credibility <= 1.0) ||
        !(config.prior >= 0.0 && config.prior <= 1.0)) {
        throw std::invalid_argument(
            "CredibilityWeightedTrust: defaults must be in [0, 1]");
    }
    std::map<EntityId, double> trust;
    for (std::size_t round = 0; round < config.iterations; ++round) {
        std::map<EntityId, double> next;
        for (const EntityId server : store.servers()) {
            next[server] =
                evaluate(store.history_snapshot(server).view(), trust, config);
        }
        trust = std::move(next);
    }
    return trust;
}

}  // namespace hpr::repsys
