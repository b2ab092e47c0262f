// Unit tests for CSV feedback-log persistence (repsys/io.h).

#include "repsys/io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "temp_path.h"

namespace hpr::repsys {
namespace {

std::vector<Feedback> sample_feedbacks() {
    return {Feedback{1, 42, 7, Rating::kPositive},
            Feedback{2, 42, 9, Rating::kNegative},
            Feedback{5, 42, 7, Rating::kNeutral}};
}

TEST(Io, WriteProducesHeaderAndRows) {
    std::ostringstream out;
    write_csv(out, sample_feedbacks());
    EXPECT_EQ(out.str(),
              "time,server,client,rating\n"
              "1,42,7,positive\n"
              "2,42,9,negative\n"
              "5,42,7,neutral\n");
}

TEST(Io, StreamRoundTrip) {
    std::ostringstream out;
    write_csv(out, sample_feedbacks());
    std::istringstream in{out.str()};
    EXPECT_EQ(read_csv(in), sample_feedbacks());
}

TEST(Io, ReadSkipsBlankLinesAndCrlf) {
    std::istringstream in{
        "time,server,client,rating\r\n"
        "\n"
        "1,42,7,positive\r\n"
        "\n"};
    const auto feedbacks = read_csv(in);
    ASSERT_EQ(feedbacks.size(), 1u);
    EXPECT_EQ(feedbacks[0].client, 7u);
}

TEST(Io, ReadRejectsMissingHeader) {
    std::istringstream in{"1,42,7,positive\n"};
    EXPECT_THROW((void)read_csv(in), std::runtime_error);
}

TEST(Io, ReadRejectsWrongFieldCount) {
    std::istringstream in{
        "time,server,client,rating\n"
        "1,42,7\n"};
    EXPECT_THROW((void)read_csv(in), std::runtime_error);
}

TEST(Io, ReadRejectsBadRating) {
    std::istringstream in{
        "time,server,client,rating\n"
        "1,42,7,excellent\n"};
    EXPECT_THROW((void)read_csv(in), std::runtime_error);
}

TEST(Io, ReadRejectsNonNumericFields) {
    std::istringstream in{
        "time,server,client,rating\n"
        "abc,42,7,positive\n"};
    EXPECT_THROW((void)read_csv(in), std::runtime_error);
}

TEST(Io, ReadRejectsTruncatingOrWrappingIds) {
    // Each row once parsed as a different, valid-looking record: a prefix
    // parse stopped at the first non-digit and the 32-bit id cast wrapped.
    for (const char* row : {"1,4294967297,3,positive", "1,7x,3,positive",
                            "1,-1,3,positive", "1,+7,3,positive", "1, 7,3,positive",
                            "1,,3,positive", "1,7,4294967296,positive",
                            "12abc,5,3,positive", "1.5,5,3,positive",
                            "99999999999999999999,5,3,positive"}) {
        std::istringstream in{std::string{"time,server,client,rating\n"} + row + "\n"};
        try {
            (void)read_csv(in);
            ADD_FAILURE() << "accepted '" << row << "'";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string{e.what()}.find("line 2"), std::string::npos) << row;
        }
    }
}

TEST(Io, ReadAcceptsFullRangeIdsAndSignedTimes) {
    std::istringstream in{
        "time,server,client,rating\n"
        "-9223372036854775808,4294967295,0,positive\n"
        "9223372036854775807,0,4294967295,negative\n"};
    const auto feedbacks = read_csv(in);
    ASSERT_EQ(feedbacks.size(), 2u);
    EXPECT_EQ(feedbacks[0].time, std::numeric_limits<Timestamp>::min());
    EXPECT_EQ(feedbacks[0].server, 4294967295u);
    EXPECT_EQ(feedbacks[1].time, std::numeric_limits<Timestamp>::max());
    EXPECT_EQ(feedbacks[1].client, 4294967295u);
}

TEST(Io, ErrorsMentionLineNumber) {
    std::istringstream in{
        "time,server,client,rating\n"
        "1,42,7,positive\n"
        "2,42,bad\n"};
    try {
        (void)read_csv(in);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string{e.what()}.find("line 3"), std::string::npos);
    }
}

TEST(Io, FileRoundTrip) {
    const auto path = test::unique_temp_path("hpr_io_test.csv");
    const TransactionHistory history{sample_feedbacks()};
    save_csv(path, history);
    const TransactionHistory loaded = load_csv(path);
    EXPECT_EQ(loaded.feedbacks(), history.feedbacks());
    std::remove(path.c_str());
}

TEST(Io, LoadMissingFileThrows) {
    EXPECT_THROW((void)load_csv("/nonexistent/dir/nothing.csv"), std::runtime_error);
}

TEST(Io, SaveToUnwritablePathThrows) {
    EXPECT_THROW(save_csv("/nonexistent/dir/file.csv", TransactionHistory{}),
                 std::runtime_error);
}

TEST(Io, LoadRejectsUnorderedTimestamps) {
    const auto path = test::unique_temp_path("hpr_io_unordered.csv");
    {
        std::ofstream out{path};
        out << "time,server,client,rating\n"
            << "5,1,1,positive\n"
            << "3,1,1,positive\n";
    }
    EXPECT_THROW((void)load_csv(path), std::invalid_argument);
    std::remove(path.c_str());
}

}  // namespace
}  // namespace hpr::repsys
