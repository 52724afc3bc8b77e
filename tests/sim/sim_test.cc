/**
 * @file
 * Tests for the cycle engine clock.
 */

#include <gtest/gtest.h>

#include "sim/clock.hh"

namespace mbavf
{
namespace
{

TEST(Clock, AdvanceAndAdvanceTo)
{
    Clock c;
    EXPECT_EQ(c.now(), 0u);
    c.advance(5);
    EXPECT_EQ(c.now(), 5u);
    c.advanceTo(3); // never goes backward
    EXPECT_EQ(c.now(), 5u);
    c.advanceTo(9);
    EXPECT_EQ(c.now(), 9u);
    c.reset();
    EXPECT_EQ(c.now(), 0u);
}

} // namespace
} // namespace mbavf
