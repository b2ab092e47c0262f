#include "sim/market.h"

#include <sstream>
#include <stdexcept>

namespace hpr::sim {

HonestStrategy::HonestStrategy(double p) : p_(p) {
    if (!(p >= 0.0 && p <= 1.0)) {
        throw std::invalid_argument("HonestStrategy: p must be in [0, 1]");
    }
}

bool HonestStrategy::serve_well(std::size_t, const repsys::TransactionHistory&,
                                stats::Rng& rng) {
    return rng.bernoulli(p_);
}

std::string HonestStrategy::name() const {
    std::ostringstream out;
    out << "honest(" << p_ << ")";
    return out.str();
}

PeriodicStrategy::PeriodicStrategy(std::size_t window, std::size_t attacks_per_window)
    : window_(window), attacks_(attacks_per_window) {
    if (window_ == 0 || attacks_ > window_) {
        throw std::invalid_argument("PeriodicStrategy: need 0 < attacks <= window");
    }
}

bool PeriodicStrategy::serve_well(std::size_t tx_index,
                                  const repsys::TransactionHistory&, stats::Rng&) {
    return (tx_index % window_) >= attacks_;
}

std::string PeriodicStrategy::name() const {
    std::ostringstream out;
    out << "periodic(" << attacks_ << "/" << window_ << ")";
    return out.str();
}

HibernatingStrategy::HibernatingStrategy(std::size_t prep, double p)
    : prep_(prep), p_(p) {
    if (!(p >= 0.0 && p <= 1.0)) {
        throw std::invalid_argument("HibernatingStrategy: p must be in [0, 1]");
    }
}

bool HibernatingStrategy::serve_well(std::size_t tx_index,
                                     const repsys::TransactionHistory&,
                                     stats::Rng& rng) {
    return tx_index < prep_ && rng.bernoulli(p_);
}

std::string HibernatingStrategy::name() const {
    std::ostringstream out;
    out << "hibernating(prep=" << prep_ << ", p=" << p_ << ")";
    return out.str();
}

WhitewashStrategy::WhitewashStrategy(std::size_t prep, std::size_t attacks, double p)
    : prep_(prep), attacks_(attacks), p_(p) {
    if (attacks_ == 0) {
        throw std::invalid_argument("WhitewashStrategy: need at least one attack");
    }
    if (!(p >= 0.0 && p <= 1.0)) {
        throw std::invalid_argument("WhitewashStrategy: p must be in [0, 1]");
    }
}

bool WhitewashStrategy::serve_well(std::size_t tx_index,
                                   const repsys::TransactionHistory&,
                                   stats::Rng& rng) {
    return tx_index < prep_ && rng.bernoulli(p_);
}

bool WhitewashStrategy::reset_identity(const repsys::TransactionHistory& own_history) {
    // The identity is spent once its attack budget has been cashed in.
    return own_history.size() >= prep_ + attacks_;
}

std::string WhitewashStrategy::name() const {
    std::ostringstream out;
    out << "whitewash(prep=" << prep_ << ", attacks=" << attacks_ << ")";
    return out.str();
}

StrategicStrategy::StrategicStrategy(
    std::shared_ptr<const core::TwoPhaseAssessor> assessor, double threshold)
    : assessor_(std::move(assessor)), threshold_(threshold) {
    if (!assessor_) {
        throw std::invalid_argument("StrategicStrategy: assessor must not be null");
    }
}

bool StrategicStrategy::serve_well(std::size_t, const repsys::TransactionHistory& own,
                                   stats::Rng&) {
    // Would a victim accept right now?
    const core::Assessment current = assessor_->assess(own);
    if (!current.acceptable(threshold_)) return true;
    // Would the history including the bad transaction stay consistent?
    repsys::TransactionHistory hypothetical = own;
    hypothetical.append(own.empty() ? 1 : own[0].server, /*client=*/0,
                        repsys::Rating::kNegative);
    return !assessor_->screen(hypothetical.view()).passed;
}

std::string StrategicStrategy::name() const {
    std::ostringstream out;
    out << "strategic(threshold=" << threshold_ << ")";
    return out.str();
}

Marketplace::Marketplace(MarketConfig config,
                         std::shared_ptr<const core::TwoPhaseAssessor> assessor)
    : config_(config), assessor_(std::move(assessor)), rng_(config.seed) {
    if (!assessor_) {
        throw std::invalid_argument("Marketplace: assessor must not be null");
    }
}

repsys::EntityId Marketplace::add_server(std::unique_ptr<ServerStrategy> strategy) {
    if (!strategy) {
        throw std::invalid_argument("Marketplace::add_server: null strategy");
    }
    const auto id = static_cast<repsys::EntityId>(servers_.size() + 1);
    servers_.push_back(Server{id, std::move(strategy), {}, 0, 0, 0, 0});
    return id;
}

void Marketplace::transact(Server& server, repsys::EntityId client,
                           bool count_metrics) {
    const bool good = server.strategy->serve_well(server.tx_count, server.history, rng_);
    server.history.append(server.id, client,
                          good ? repsys::Rating::kPositive : repsys::Rating::kNegative);
    ++server.tx_count;
    ++server.lifetime_tx;
    if (!good) {
        ++server.bad_served;
        if (count_metrics) ++total_bad_suffered_;
    }
    if (server.strategy->reset_identity(server.history)) {
        // Whitewash: the record vanishes with the old identity.
        server.history = repsys::TransactionHistory{};
        server.tx_count = 0;
        ++server.identity_resets;
    }
}

void Marketplace::run() {
    if (servers_.empty()) {
        throw std::logic_error("Marketplace::run: no servers registered");
    }
    // Bootstrap: give every server a screenable history.  Bad transactions
    // suffered here do not count toward the headline metric — the paper's
    // threat model assumes attackers already hold a history (§5.1).
    for (std::size_t i = 0; i < config_.bootstrap_per_server; ++i) {
        for (Server& server : servers_) {
            transact(server, next_client_++, /*count_metrics=*/false);
        }
    }

    for (std::size_t step = 0; step < config_.steps; ++step) {
        const repsys::EntityId client = next_client_++;
        // Some clients do not consult the reputation system at all.
        if (config_.exploration > 0.0 && rng_.bernoulli(config_.exploration)) {
            Server& chosen = servers_[rng_.uniform_int(servers_.size())];
            transact(chosen, client, /*count_metrics=*/true);
            continue;
        }
        // The client assesses every server and picks uniformly among the
        // acceptable ones (all acceptable servers look equally good at the
        // threshold; uniform choice avoids a winner-takes-all artifact).
        std::vector<Server*> acceptable;
        for (Server& server : servers_) {
            const core::Assessment assessment = assessor_->assess(server.history);
            if (assessment.verdict == core::Verdict::kSuspicious) {
                ++server.rejected_screen;
                continue;
            }
            if (assessment.verdict == core::Verdict::kInsufficientHistory &&
                config_.newcomer_policy == NewcomerPolicy::kReject) {
                ++server.rejected_newcomer;
                continue;
            }
            if (!assessment.trust || *assessment.trust < config_.trust_threshold) {
                ++server.rejected_trust;
                continue;
            }
            acceptable.push_back(&server);
        }
        if (acceptable.empty()) continue;
        Server& chosen = *acceptable[rng_.uniform_int(acceptable.size())];
        transact(chosen, client, /*count_metrics=*/true);
    }
}

std::map<repsys::EntityId, ServerReport> Marketplace::report() const {
    std::map<repsys::EntityId, ServerReport> reports;
    for (const Server& server : servers_) {
        ServerReport r;
        r.strategy = server.strategy->name();
        r.transactions = server.lifetime_tx;
        r.bad_served = server.bad_served;
        r.rejected_screen = server.rejected_screen;
        r.rejected_trust = server.rejected_trust;
        r.rejected_newcomer = server.rejected_newcomer;
        r.identity_resets = server.identity_resets;
        const core::Assessment assessment = assessor_->assess(server.history);
        r.suspicious = assessment.verdict == core::Verdict::kSuspicious;
        r.final_trust = assessment.trust.value_or(0.0);
        reports.emplace(server.id, std::move(r));
    }
    return reports;
}

const repsys::TransactionHistory& Marketplace::history_of(repsys::EntityId id) const {
    for (const Server& server : servers_) {
        if (server.id == id) return server.history;
    }
    throw std::out_of_range("Marketplace::history_of: unknown server id");
}

}  // namespace hpr::sim
