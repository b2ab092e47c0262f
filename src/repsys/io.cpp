#include "repsys/io.h"

#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace hpr::repsys {
namespace {

constexpr const char* kHeader = "time,server,client,rating";

std::vector<std::string> split_fields(const std::string& line) {
    std::vector<std::string> fields;
    std::string field;
    std::istringstream in{line};
    while (std::getline(in, field, ',')) fields.push_back(field);
    return fields;
}

/// Strict integer field: the whole field must be one in-range decimal
/// number.  Only a signed target accepts a leading '-'; no '+', spaces or
/// trailing characters.
template <class Int>
Int parse_field(const std::string& field, const char* what) {
    Int value{};
    const char* end = field.data() + field.size();
    const auto [ptr, ec] = std::from_chars(field.data(), end, value);
    if (ec != std::errc{} || ptr != end) {
        throw std::runtime_error(std::string{"bad "} + what + " '" + field + "'");
    }
    return value;
}

}  // namespace

void write_csv(std::ostream& out, const std::vector<Feedback>& feedbacks) {
    out << kHeader << '\n';
    for (const Feedback& f : feedbacks) {
        out << f.time << ',' << f.server << ',' << f.client << ','
            << to_string(f.rating) << '\n';
    }
}

void save_csv(const std::string& path, const TransactionHistory& history) {
    std::ofstream out{path};
    if (!out) {
        throw std::runtime_error("save_csv: cannot open '" + path + "' for writing");
    }
    write_csv(out, history.feedbacks());
    if (!out) {
        throw std::runtime_error("save_csv: write to '" + path + "' failed");
    }
}

std::vector<Feedback> read_csv(std::istream& in) {
    std::vector<Feedback> feedbacks;
    std::string line;
    std::size_t line_no = 0;
    bool saw_header = false;
    while (std::getline(in, line)) {
        ++line_no;
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (line.empty()) continue;
        if (!saw_header) {
            if (line != kHeader) {
                throw std::runtime_error("read_csv: line 1 must be the header '" +
                                         std::string{kHeader} + "'");
            }
            saw_header = true;
            continue;
        }
        const auto fields = split_fields(line);
        if (fields.size() != 4) {
            throw std::runtime_error("read_csv: line " + std::to_string(line_no) +
                                     ": expected 4 fields, got " +
                                     std::to_string(fields.size()));
        }
        try {
            Feedback f;
            f.time = parse_field<Timestamp>(fields[0], "timestamp");
            f.server = parse_field<EntityId>(fields[1], "server id");
            f.client = parse_field<EntityId>(fields[2], "client id");
            f.rating = rating_from_string(fields[3]);
            feedbacks.push_back(f);
        } catch (const std::exception& e) {
            throw std::runtime_error("read_csv: line " + std::to_string(line_no) +
                                     ": " + e.what());
        }
    }
    return feedbacks;
}

TransactionHistory load_csv(const std::string& path) {
    std::ifstream in{path};
    if (!in) {
        throw std::runtime_error("load_csv: cannot open '" + path + "'");
    }
    return TransactionHistory{read_csv(in)};
}

}  // namespace hpr::repsys
