#ifndef HPR_REPSYS_TRUST_H
#define HPR_REPSYS_TRUST_H

/// \file trust.h
/// Trust functions (paper §2): mappings from a server's feedback history
/// to a trust value in [0, 1], interpreted as the predicted probability
/// that the next transaction will be satisfactory.
///
/// Two interfaces are provided:
///  * TrustFunction::evaluate — whole-history evaluation;
///  * TrustFunction::make_accumulator — an O(1)-per-feedback streaming
///    evaluator, used by simulated strategic attackers that must score
///    hypothetical futures thousands of times per run, and by the serving
///    layer's screener bank to keep each stream's trust current.
///
/// Implementations:
///  * AverageTrust   — good/total ratio (paper's first baseline; [13]
///    argues this simple form is often the most cost-effective).
///  * WeightedTrust  — EWMA  R_t = λ f_t + (1-λ) R_{t-1}  (paper's second
///    baseline, from Fan-Tan-Whinston [15]).
///  * BetaTrust      — posterior mean (g+1)/(g+b+2) of the Beta reputation
///    system (Ismail & Josang [16]).
///  * DecayTrust     — geometric time-decay weights w_i ∝ γ^(n-i),
///    Σw_i = 1 (the decay-factor family of [14, 18, 19]).

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "repsys/history.h"
#include "repsys/types.h"

namespace hpr::repsys {

/// Streaming trust evaluator. Feed outcomes oldest-first.
class TrustAccumulator {
public:
    virtual ~TrustAccumulator() = default;

    /// Incorporate the next transaction outcome.
    virtual void update(bool good) = 0;

    /// Current trust value in [0, 1].
    [[nodiscard]] virtual double value() const = 0;

    /// Deep copy — lets a strategic attacker branch a hypothetical future
    /// off its real history in O(1).
    [[nodiscard]] virtual std::unique_ptr<TrustAccumulator> clone() const = 0;

    /// Resident bytes of this evaluator (constant for its life).
    [[nodiscard]] virtual std::size_t memory_bytes() const noexcept = 0;
};

/// A trust function: 2^F x V -> [0, 1] in the paper's notation.
class TrustFunction {
public:
    virtual ~TrustFunction() = default;

    /// Human-readable name ("average", "weighted(0.5)", ...).
    [[nodiscard]] virtual std::string name() const = 0;

    /// Fresh streaming evaluator starting from the prior trust value.
    [[nodiscard]] virtual std::unique_ptr<TrustAccumulator> make_accumulator() const = 0;

    /// Trust value of a feedback sequence (oldest first).
    [[nodiscard]] double evaluate(std::span<const Feedback> feedbacks) const;

    /// Trust value of a whole history.
    [[nodiscard]] double evaluate(const TransactionHistory& history) const {
        return evaluate(history.view());
    }
};

/// good / total; prior when the history is empty.
class AverageTrust final : public TrustFunction {
public:
    explicit AverageTrust(double prior = 0.5);

    [[nodiscard]] std::string name() const override { return "average"; }
    [[nodiscard]] std::unique_ptr<TrustAccumulator> make_accumulator() const override;

private:
    double prior_;
};

/// R_t = lambda * f_t + (1 - lambda) * R_{t-1}.
class WeightedTrust final : public TrustFunction {
public:
    /// \throws std::invalid_argument unless lambda in (0, 1] and
    /// initial in [0, 1].
    explicit WeightedTrust(double lambda = 0.5, double initial = 0.5);

    [[nodiscard]] std::string name() const override;
    [[nodiscard]] std::unique_ptr<TrustAccumulator> make_accumulator() const override;

    [[nodiscard]] double lambda() const noexcept { return lambda_; }

private:
    double lambda_;
    double initial_;
};

/// Posterior mean of Beta(g + 1, b + 1).
class BetaTrust final : public TrustFunction {
public:
    [[nodiscard]] std::string name() const override { return "beta"; }
    [[nodiscard]] std::unique_ptr<TrustAccumulator> make_accumulator() const override;
};

/// PID-style trust after TrustGuard (Srivatsa, Xiong & Liu, WWW 2005 —
/// paper reference [10]):
///
///   R_t = alpha * current + beta * integral + gamma * derivative
///
/// where `current` is the mean feedback over the most recent window,
/// `integral` the long-run average, and `derivative` the recent change in
/// window means (clamped into [0,1] at the end).  The derivative term
/// punishes *sudden* behavior swings — TrustGuard's answer to the same
/// oscillation attacks the paper screens out statistically; the two
/// approaches are natural baselines for one another.
class TrustGuardTrust final : public TrustFunction {
public:
    /// \param alpha,beta,gamma  component weights (alpha + beta expected
    ///        ~1; gamma weighs the damping term, typically negative-free
    ///        since the derivative is signed)
    /// \param window            transactions per "current" window
    /// \throws std::invalid_argument if window == 0 or alpha/beta < 0.
    TrustGuardTrust(double alpha = 0.5, double beta = 0.4, double gamma = 0.1,
                    std::size_t window = 10);

    [[nodiscard]] std::string name() const override;
    [[nodiscard]] std::unique_ptr<TrustAccumulator> make_accumulator() const override;

private:
    double alpha_;
    double beta_;
    double gamma_;
    std::size_t window_;
};

/// Normalized geometric decay: trust = (sum gamma^(n-i) f_i) / (sum gamma^(n-i)).
class DecayTrust final : public TrustFunction {
public:
    /// \throws std::invalid_argument unless gamma in (0, 1].
    explicit DecayTrust(double gamma = 0.98, double prior = 0.5);

    [[nodiscard]] std::string name() const override;
    [[nodiscard]] std::unique_ptr<TrustAccumulator> make_accumulator() const override;

    [[nodiscard]] double gamma() const noexcept { return gamma_; }

private:
    double gamma_;
    double prior_;
};

/// Build a trust function from a textual spec:
///   "average" | "average:<prior>" | "weighted" | "weighted:<lambda>"
///   | "beta" | "decay" | "decay:<gamma>" | "trustguard"
/// \throws std::invalid_argument on unknown specs.
[[nodiscard]] std::unique_ptr<TrustFunction> make_trust_function(const std::string& spec);

/// Specs make_trust_function accepts (for CLI help and tests).
[[nodiscard]] std::vector<std::string> known_trust_functions();

}  // namespace hpr::repsys

#endif  // HPR_REPSYS_TRUST_H
