// Agent-side certificate handling: expiry, rogue authorities, gossiped
// zone-authority chains, and randomized tamper detection.
#include <gtest/gtest.h>

#include "astrolabe/deployment.h"
#include "util/rng.h"

namespace nw::astrolabe {
namespace {

DeploymentConfig Cfg() {
  DeploymentConfig cfg;
  cfg.branching = 8;
  cfg.seed = 4;
  return cfg;
}

TEST(AgentCerts, ExpiredFunctionCertificateRejected) {
  Deployment d(8, Cfg());
  d.StartAll();
  d.RunFor(100);  // now ~100s
  Certificate expired = d.root_authority().Issue(
      CertKind::kFunction, "old", 0,
      {{"code", "SELECT COUNT(*) AS c"}, {"version", "1"}}, 0, 50);
  EXPECT_FALSE(d.agent(0).InstallFunction(expired));
  Certificate current = d.root_authority().Issue(
      CertKind::kFunction, "new", 0,
      {{"code", "SELECT COUNT(*) AS c"}, {"version", "1"}}, 0, 1e18);
  EXPECT_TRUE(d.agent(0).InstallFunction(current));
}

TEST(AgentCerts, FunctionFromRogueAuthorityRejectedEverywhere) {
  Deployment d(8, Cfg());
  d.StartAll();
  util::DeterministicRng rng(123);
  Authority rogue("rogue", GenerateKeyPair(rng));
  Certificate bad = rogue.Issue(
      CertKind::kFunction, "evil", 0,
      {{"code", "SELECT MAX(x) AS x"}, {"version", "9"}}, 0, 1e18);
  EXPECT_FALSE(d.agent(3).InstallFunction(bad));
  d.RunFor(60);
  for (std::size_t i = 0; i < d.size(); ++i) {
    auto names = d.agent(i).InstalledFunctionNames();
    EXPECT_TRUE(std::find(names.begin(), names.end(), "evil") == names.end());
  }
}

TEST(AgentCerts, ZoneAuthorityChainEnablesDelegatedFunctions) {
  Deployment d(8, Cfg());
  // A zone authority whose own certificate chains to the root can issue
  // functions; agents learn the intermediate via gossip.
  util::DeterministicRng rng(55);
  const KeyPair zone_keys = GenerateKeyPair(rng);
  Authority zone_auth("usa", zone_keys);
  Certificate zone_cert = d.root_authority().Issue(
      CertKind::kZoneAuthority, "usa", zone_auth.public_key(), {}, 0, 1e18);
  Certificate fn = zone_auth.Issue(
      CertKind::kFunction, "delegated", 0,
      {{"code", "SELECT MIN(load) AS minload"}, {"version", "1"}}, 0, 1e18);

  // Without the intermediate, the function is refused.
  EXPECT_FALSE(d.agent(0).InstallFunction(fn));
  // With it, accepted; and both spread epidemically to everyone.
  ASSERT_TRUE(d.agent(0).AddZoneAuthority(zone_cert));
  ASSERT_TRUE(d.agent(0).InstallFunction(fn));
  d.StartAll();
  d.RunFor(80);
  for (std::size_t i = 0; i < d.size(); ++i) {
    auto names = d.agent(i).InstalledFunctionNames();
    EXPECT_TRUE(std::find(names.begin(), names.end(), "delegated") !=
                names.end())
        << "agent " << i;
  }
}

TEST(AgentCerts, RogueZoneAuthorityNotAdded) {
  Deployment d(8, Cfg());
  util::DeterministicRng rng(77);
  Authority rogue("rogue", GenerateKeyPair(rng));
  Certificate self_signed = rogue.Issue(CertKind::kZoneAuthority, "rogue",
                                        rogue.public_key(), {}, 0, 1e18);
  EXPECT_FALSE(d.agent(0).AddZoneAuthority(self_signed));
}

// Regression for the per-round cert re-broadcast fixed with wire format
// v2: gossip used to attach every installed certificate body to every
// message, so a 2-node pair re-shipped the same certs forever. With the
// id-inventory dedup, a cert body crosses a steady-state link exactly once.
TEST(AgentCerts, CertBodyCrossesATwoNodeLinkExactlyOnce) {
  DeploymentConfig cfg;
  cfg.branching = 2;
  cfg.seed = 9;
  Deployment d(2, cfg);
  d.StartAll();
  d.RunFor(30);  // bootstrap: core function cert disseminated both ways

  auto bodies_sent = [&d] {
    return d.agent(0).gossip_stats().certs_sent +
           d.agent(1).gossip_stats().certs_sent;
  };
  const std::uint64_t steady = bodies_sent();
  d.RunFor(60);
  // Steady state: both inventories are mutually known, so sixty more
  // rounds of gossip move zero certificate bodies.
  EXPECT_EQ(bodies_sent(), steady);

  // A certificate installed on one side crosses the link exactly once —
  // the id advertisement suppresses the echo and every re-send.
  Certificate fresh = d.root_authority().Issue(
      CertKind::kFunction, "fresh", 0,
      {{"code", "SELECT COUNT(*) AS fresh_count"}, {"version", "1"}}, 0, 1e18);
  ASSERT_TRUE(d.agent(0).InstallFunction(fresh));
  d.RunFor(60);
  EXPECT_EQ(bodies_sent(), steady + 1);
  const auto names = d.agent(1).InstalledFunctionNames();
  EXPECT_TRUE(std::find(names.begin(), names.end(), "fresh") != names.end());
}

// Randomized tamper detection: flip any field of a valid certificate and
// the signature must break.
class TamperProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TamperProperty, AnyFieldMutationBreaksTheSignature) {
  util::DeterministicRng rng(GetParam());
  Authority root("root", GenerateKeyPair(rng));
  Certificate cert = root.Issue(
      CertKind::kFunction, "fn" + std::to_string(rng.NextBelow(100)),
      rng.NextU64(),
      {{"code", "SELECT SUM(a) AS a"},
       {"version", std::to_string(rng.NextBelow(10))}},
      0, 1000 + double(rng.NextBelow(1000)));
  ASSERT_TRUE(cert.VerifySignature());
  Certificate mutated = cert;
  switch (rng.NextBelow(6)) {
    case 0: mutated.subject += "x"; break;
    case 1: mutated.subject_key ^= 1; break;
    case 2: mutated.claims["code"] += " "; break;
    case 3: mutated.not_before += 1; break;
    case 4: mutated.not_after += 1; break;
    case 5: mutated.claims["extra"] = "field"; break;
  }
  EXPECT_FALSE(mutated.VerifySignature());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TamperProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u,
                                           10u, 11u, 12u));

}  // namespace
}  // namespace nw::astrolabe
