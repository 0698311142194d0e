/**
 * @file
 * publishFile() failure path: the result-cache and repro-bundle tests
 * cover a publish that succeeds, a damaged file and a stale tmp; this
 * one covers a publish that cannot happen at all.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "common/file_io.hh"

using namespace vpir;

TEST(FileIo, PublishIntoMissingDirFailsAndLeavesNothing)
{
    std::string dir = ::testing::TempDir() + "/file_io_missing_dir";
    std::filesystem::remove_all(dir);
    std::string path = dir + "/cell.json";

    std::string err;
    EXPECT_FALSE(publishFile(path, "{}\n", err));
    EXPECT_NE(err.find(path), std::string::npos) << err;
    EXPECT_FALSE(std::filesystem::exists(dir));
    EXPECT_FALSE(std::filesystem::exists(path));
}
