#ifndef HPR_SIM_MARKET_H
#define HPR_SIM_MARKET_H

/// \file market.h
/// A small marketplace simulation that puts the two-phase assessor to
/// work end-to-end: a population of servers (honest and adversarial)
/// serves a stream of clients who pick providers using a configurable
/// assessor.  Used by the examples and integration tests to measure how
/// many bad transactions clients suffer with and without behavior
/// testing — the qualitative claim behind the paper's evaluation.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/two_phase.h"
#include "repsys/history.h"
#include "stats/rng.h"

namespace hpr::sim {

/// How a server decides to serve its next transaction.
class ServerStrategy {
public:
    virtual ~ServerStrategy() = default;

    /// Whether transaction number `tx_index` (0-based, counted per server)
    /// is served well.  `own_history` is the server's feedback record so
    /// far; adaptive strategies may consult it.
    [[nodiscard]] virtual bool serve_well(std::size_t tx_index,
                                          const repsys::TransactionHistory& own_history,
                                          stats::Rng& rng) = 0;

    /// Whether the server abandons its identity and re-registers fresh
    /// (whitewashing, paper §3.1's cheat-and-run discussion).  Checked
    /// after every transaction; a reset clears the history and the
    /// per-identity transaction counter.
    [[nodiscard]] virtual bool reset_identity(
        const repsys::TransactionHistory& own_history) {
        (void)own_history;
        return false;
    }

    [[nodiscard]] virtual std::string name() const = 0;
};

/// Honest player: good with fixed probability p (paper §3.1).
class HonestStrategy final : public ServerStrategy {
public:
    explicit HonestStrategy(double p);
    [[nodiscard]] bool serve_well(std::size_t, const repsys::TransactionHistory&,
                                  stats::Rng& rng) override;
    [[nodiscard]] std::string name() const override;

private:
    double p_;
};

/// Periodic attacker: in every block of `window` transactions the first
/// `attacks_per_window` are bad (paper §3, "Periodic Attacks").
class PeriodicStrategy final : public ServerStrategy {
public:
    PeriodicStrategy(std::size_t window, std::size_t attacks_per_window);
    [[nodiscard]] bool serve_well(std::size_t tx_index,
                                  const repsys::TransactionHistory&,
                                  stats::Rng&) override;
    [[nodiscard]] std::string name() const override;

private:
    std::size_t window_;
    std::size_t attacks_;
};

/// Hibernating attacker: honest (with probability p) for the first
/// `prep` transactions, always bad afterwards (paper §3, "Hibernating
/// Attack").
class HibernatingStrategy final : public ServerStrategy {
public:
    HibernatingStrategy(std::size_t prep, double p);
    [[nodiscard]] bool serve_well(std::size_t tx_index,
                                  const repsys::TransactionHistory&,
                                  stats::Rng& rng) override;
    [[nodiscard]] std::string name() const override;

private:
    std::size_t prep_;
    double p_;
};

/// Whitewashing attacker: behaves honestly (probability p) for `prep`
/// transactions, cheats for the next `attacks` transactions, then dumps
/// the identity and re-registers — the cheat-and-run cycle of §3.1 run in
/// a loop.  Only join friction or a strict newcomer policy deters it.
class WhitewashStrategy final : public ServerStrategy {
public:
    WhitewashStrategy(std::size_t prep, std::size_t attacks, double p);
    [[nodiscard]] bool serve_well(std::size_t tx_index,
                                  const repsys::TransactionHistory&,
                                  stats::Rng& rng) override;
    [[nodiscard]] bool reset_identity(
        const repsys::TransactionHistory& own_history) override;
    [[nodiscard]] std::string name() const override;

private:
    std::size_t prep_;
    std::size_t attacks_;
    double p_;
};

/// The strategic attacker of §5.1 as a marketplace participant: before
/// every transaction it consults the *defender's own* assessor — it
/// cheats exactly when the history including the planned bad transaction
/// would still pass screening and its current trust clears the victims'
/// threshold; otherwise it serves well.  Plugging the very assessor the
/// market uses into this strategy simulates a fully informed adversary.
class StrategicStrategy final : public ServerStrategy {
public:
    /// \param assessor   the defense the attacker knows (not owned)
    /// \param threshold  the victims' trust threshold
    /// \throws std::invalid_argument if assessor is null.
    StrategicStrategy(std::shared_ptr<const core::TwoPhaseAssessor> assessor,
                      double threshold);

    [[nodiscard]] bool serve_well(std::size_t tx_index,
                                  const repsys::TransactionHistory& own_history,
                                  stats::Rng& rng) override;
    [[nodiscard]] std::string name() const override;

private:
    std::shared_ptr<const core::TwoPhaseAssessor> assessor_;
    double threshold_;
};

/// Client policy toward servers whose histories are too short to screen
/// (paper §7: "service providers with short histories are widely
/// considered high-risk groups").
enum class NewcomerPolicy : std::uint8_t {
    kTrustValue,  ///< accept newcomers whose trust value clears the threshold
    kReject,      ///< refuse every unscreenable server
};

/// Per-server tallies after a simulation.
struct ServerReport {
    std::string strategy;
    std::size_t transactions = 0;      ///< transactions actually served
    std::size_t bad_served = 0;        ///< bad transactions clients suffered
    std::size_t rejected_screen = 0;   ///< selections vetoed by phase-1 screening
    std::size_t rejected_trust = 0;    ///< selections vetoed by the trust threshold
    std::size_t rejected_newcomer = 0; ///< selections vetoed by the newcomer policy
    std::size_t identity_resets = 0;   ///< whitewashing re-registrations
    double final_trust = 0.0;          ///< trust value at the end (0 if suspicious)
    bool suspicious = false;           ///< flagged by screening at the end
};

/// Marketplace configuration.
struct MarketConfig {
    std::size_t steps = 2000;          ///< client requests to simulate
    double trust_threshold = 0.9;
    std::size_t bootstrap_per_server = 60;  ///< warm-up transactions per server

    /// Probability that a client ignores the assessor and picks any
    /// server uniformly.  Models buyers who do not consult reputation;
    /// also the recovery channel for honest servers a noisy screening
    /// verdict would otherwise freeze out forever (their histories only
    /// evolve — and clear — if somebody still transacts with them).
    double exploration = 0.0;

    /// How clients treat unscreenably short histories.
    NewcomerPolicy newcomer_policy = NewcomerPolicy::kTrustValue;

    std::uint64_t seed = 42;
};

/// The marketplace. Servers are registered with a strategy; each step one
/// client request arrives, a server is chosen uniformly among candidates
/// the assessor accepts, and the transaction + feedback is recorded.
class Marketplace {
public:
    Marketplace(MarketConfig config, std::shared_ptr<const core::TwoPhaseAssessor> assessor);

    /// Register a server; returns its id.
    repsys::EntityId add_server(std::unique_ptr<ServerStrategy> strategy);

    /// Run the simulation: bootstrap every server with
    /// bootstrap_per_server transactions (so histories are screenable),
    /// then `steps` client requests.
    void run();

    /// Per-server outcome report (keyed by server id).
    [[nodiscard]] std::map<repsys::EntityId, ServerReport> report() const;

    /// Bad transactions suffered by clients across all servers
    /// (bootstrap excluded).
    [[nodiscard]] std::size_t total_bad_suffered() const noexcept {
        return total_bad_suffered_;
    }

    [[nodiscard]] const repsys::TransactionHistory& history_of(repsys::EntityId id) const;

private:
    struct Server {
        repsys::EntityId id;
        std::unique_ptr<ServerStrategy> strategy;
        repsys::TransactionHistory history;
        std::size_t tx_count = 0;      ///< per-identity (resets on whitewash)
        std::size_t lifetime_tx = 0;   ///< across identities
        std::size_t bad_served = 0;
        std::size_t rejected_screen = 0;
        std::size_t rejected_trust = 0;
        std::size_t rejected_newcomer = 0;
        std::size_t identity_resets = 0;
    };

    void transact(Server& server, repsys::EntityId client, bool count_metrics);

    MarketConfig config_;
    std::shared_ptr<const core::TwoPhaseAssessor> assessor_;
    std::vector<Server> servers_;
    stats::Rng rng_;
    std::size_t total_bad_suffered_ = 0;
    repsys::EntityId next_client_ = 1000;
};

}  // namespace hpr::sim

#endif  // HPR_SIM_MARKET_H
