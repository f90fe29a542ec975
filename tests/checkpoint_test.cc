// Checkpoint format and resumption contract: serialize/parse round-trips,
// program fingerprinting, rejection of mismatched resumes, graceful
// handling of malformed/hostile checkpoint bytes, and budget-interrupt →
// resume bit-identity without fault injection (deadline and step-budget
// stops through the public ResumeChase entry point).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/chase.h"
#include "core/checkpoint.h"
#include "kb/examples.h"

namespace twchase {
namespace {

ChaseOptions RecordingOptions(ChaseVariant variant, size_t max_steps) {
  ChaseOptions options;
  options.variant = variant;
  options.limits.max_steps = max_steps;
  options.resume.record_log = true;
  return options;
}

TEST(ProgramFingerprintTest, DeterministicAcrossFreshWorlds) {
  StaircaseWorld a;
  StaircaseWorld b;
  EXPECT_EQ(ProgramFingerprint(a.kb()), ProgramFingerprint(b.kb()));
  ElevatorWorld c;
  ElevatorWorld d;
  EXPECT_EQ(ProgramFingerprint(c.kb()), ProgramFingerprint(d.kb()));
  EXPECT_NE(ProgramFingerprint(a.kb()), ProgramFingerprint(c.kb()));
}

TEST(ProgramFingerprintTest, SensitiveToFactsAndRules) {
  StaircaseWorld a;
  uint64_t before = ProgramFingerprint(a.kb());
  // Adding one fact changes the fingerprint.
  KnowledgeBase more_facts = a.kb();
  Atom existing;
  more_facts.facts.ForEach([&](const Atom& atom) { existing = atom; });
  std::vector<Term> args = existing.args();
  args.push_back(args.empty() ? Term::Constant(0) : args.back());
  more_facts.facts.Insert(Atom(existing.predicate(), std::move(args)));
  EXPECT_NE(ProgramFingerprint(more_facts), before);
  // Dropping a rule changes the fingerprint.
  KnowledgeBase fewer_rules = a.kb();
  fewer_rules.rules.pop_back();
  EXPECT_NE(ProgramFingerprint(fewer_rules), before);
  // Facts of a different family differ too.
  EXPECT_NE(ProgramFingerprint(MakeTransitiveClosure(3)),
            ProgramFingerprint(MakeTransitiveClosure(4)));
}

TEST(CheckpointFormatTest, SerializeParseRoundTrip) {
  StaircaseWorld world;
  ChaseOptions options = RecordingOptions(ChaseVariant::kCore, 4);
  auto run = RunChase(world.kb(), options);
  ASSERT_TRUE(run.ok());
  StaircaseWorld fresh;
  ChaseCheckpoint cp = MakeCheckpoint(fresh.kb(), options, *run);
  std::string text = SerializeCheckpoint(cp);

  auto parsed = ParseCheckpoint(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->version, cp.version);
  EXPECT_EQ(parsed->variant, cp.variant);
  EXPECT_TRUE(parsed->datalog_first);
  EXPECT_TRUE(parsed->delta_enabled);
  EXPECT_EQ(parsed->core_every, 1u);
  EXPECT_TRUE(parsed->core_initial);
  EXPECT_EQ(parsed->program_fingerprint, cp.program_fingerprint);
  EXPECT_EQ(parsed->stop_reason, cp.stop_reason);
  EXPECT_EQ(parsed->steps, cp.steps);
  EXPECT_EQ(parsed->rounds, cp.rounds);
  EXPECT_EQ(parsed->instance_size, cp.instance_size);
  EXPECT_EQ(parsed->instance_hash, cp.instance_hash);
  EXPECT_EQ(parsed->expected_variables, cp.expected_variables);
  EXPECT_EQ(parsed->log.have_initial, cp.log.have_initial);
  EXPECT_EQ(parsed->log.initial_sigma, cp.log.initial_sigma);
  EXPECT_EQ(parsed->log.steps.size(), cp.log.steps.size());
  for (size_t i = 0; i < cp.log.steps.size(); ++i) {
    EXPECT_EQ(parsed->log.steps[i].sigma, cp.log.steps[i].sigma) << i;
    EXPECT_EQ(parsed->log.steps[i].cored, cp.log.steps[i].cored) << i;
    EXPECT_EQ(parsed->log.steps[i].fold_sigmas.size(),
              cp.log.steps[i].fold_sigmas.size())
        << i;
  }
  ASSERT_EQ(parsed->log.rounds.size(), cp.log.rounds.size());
  for (size_t i = 0; i < cp.log.rounds.size(); ++i) {
    EXPECT_EQ(parsed->log.rounds[i].decisions, cp.log.rounds[i].decisions)
        << i;
  }
  // Serialization is canonical: parse(serialize(x)) serializes identically.
  EXPECT_EQ(SerializeCheckpoint(*parsed), text);
}

TEST(CheckpointFormatTest, MalformedInputsAreRejectedNotFatal) {
  StaircaseWorld world;
  ChaseOptions options = RecordingOptions(ChaseVariant::kRestricted, 3);
  auto run = RunChase(world.kb(), options);
  ASSERT_TRUE(run.ok());
  StaircaseWorld fresh;
  std::string good =
      SerializeCheckpoint(MakeCheckpoint(fresh.kb(), options, *run));
  // The last round line without its fixed round-end tail "0 0 0" (flag,
  // fold count, empty σ): a tail that records a round-end coring is refused.
  const std::string last_round = good.substr(0, good.rfind(" 0 0 0\nend\n"));

  const std::string cases[] = {
      "",
      "not a checkpoint at all",
      "twchase-checkpoint 99\n",             // unsupported version
      good.substr(0, good.size() / 2),       // truncated mid-file
      good.substr(0, good.find("end")),      // missing terminator
      "twchase-checkpoint 1\nvariant bogus\n",
      "twchase-checkpoint 1\nvariant core\nschedule x y z\n",
      last_round + " 1 0 0\nend\n",
      last_round + " 0 2 0\nend\n",
      last_round + " 1 1 1 2147483652 2147483653\nend\n",
  };
  for (const std::string& text : cases) {
    auto parsed = ParseCheckpoint(text);
    EXPECT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
        << parsed.status().ToString();
  }

  // Hostile counts must not cause huge allocations or crashes.
  std::string hostile = good;
  size_t steps_pos = hostile.find("\nsteps ");
  ASSERT_NE(steps_pos, std::string::npos);
  hostile.replace(steps_pos, 8, "\nsteps 999999999999 ");
  EXPECT_FALSE(ParseCheckpoint(hostile).ok());
}

// Regression: ParseCheckpoint used to stream through an istringstream,
// silently ignoring anything after "end" and accepting a final line with no
// terminating newline — so a torn or concatenated checkpoint file parsed as
// if it were intact. Both are now rejected with the byte offset.
TEST(CheckpointFormatTest, TrailingGarbageAndTruncationAreRejectedWithOffsets) {
  StaircaseWorld world;
  ChaseOptions options = RecordingOptions(ChaseVariant::kRestricted, 3);
  auto run = RunChase(world.kb(), options);
  ASSERT_TRUE(run.ok());
  StaircaseWorld fresh;
  std::string good =
      SerializeCheckpoint(MakeCheckpoint(fresh.kb(), options, *run));
  ASSERT_TRUE(ParseCheckpoint(good).ok());

  // Bytes after the "end" line: rejected, offset points past "end".
  auto trailing = ParseCheckpoint(good + "junk after the end\n");
  ASSERT_FALSE(trailing.ok());
  EXPECT_EQ(trailing.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(trailing.status().message().find("trailing garbage"),
            std::string::npos)
      << trailing.status();
  EXPECT_NE(trailing.status().message().find(
                "at byte " + std::to_string(good.size())),
            std::string::npos)
      << trailing.status();

  // A second full checkpoint appended (the classic double-write) is
  // trailing garbage too, not a silent first-wins parse.
  EXPECT_FALSE(ParseCheckpoint(good + good).ok());

  // Final line missing its newline: a torn tail, not a valid terminator.
  std::string torn = good.substr(0, good.size() - 1);
  auto truncated = ParseCheckpoint(torn);
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(truncated.status().message().find("truncated final line"),
            std::string::npos)
      << truncated.status();
  EXPECT_NE(truncated.status().message().find("at byte"), std::string::npos);

  // Structurally malformed lines carry the offset of the line they died on.
  const std::string prefix = "twchase-checkpoint 1\nvariant core\n";
  auto bogus = ParseCheckpoint(prefix + "nonsense\n");
  ASSERT_FALSE(bogus.ok());
  EXPECT_NE(bogus.status().message().find("at byte"), std::string::npos)
      << bogus.status();
}

TEST(CheckpointFormatTest, SealedFooterRoundTripsAndCatchesCorruption) {
  StaircaseWorld world;
  ChaseOptions options = RecordingOptions(ChaseVariant::kCore, 4);
  auto run = RunChase(world.kb(), options);
  ASSERT_TRUE(run.ok());
  StaircaseWorld fresh;
  ChaseCheckpoint cp = MakeCheckpoint(fresh.kb(), options, *run);
  const std::string plain = SerializeCheckpoint(cp);
  const std::string sealed = SerializeCheckpointSealed(cp);

  // The sealed form is the plain body plus one footer line.
  ASSERT_GT(sealed.size(), plain.size());
  EXPECT_EQ(sealed.substr(0, plain.size()), plain);
  EXPECT_EQ(sealed.compare(plain.size(), 9, "checksum "), 0);

  auto parsed = ParseSealedCheckpoint(sealed);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(SerializeCheckpoint(*parsed), plain);

  // A single flipped bit anywhere in the body fails the CRC.
  for (size_t pos : {size_t{0}, plain.size() / 2, plain.size() - 2}) {
    std::string flipped = sealed;
    flipped[pos] ^= 0x40;
    EXPECT_FALSE(ParseSealedCheckpoint(flipped).ok()) << "flip at " << pos;
  }
  // Truncation (torn write), bytes after the footer, a doctored length,
  // and the plain unsealed text are all rejected.
  EXPECT_FALSE(ParseSealedCheckpoint(sealed.substr(0, sealed.size() / 2)).ok());
  EXPECT_FALSE(ParseSealedCheckpoint(sealed.substr(0, sealed.size() - 1)).ok());
  EXPECT_FALSE(ParseSealedCheckpoint(sealed + "x\n").ok());
  EXPECT_FALSE(ParseSealedCheckpoint(plain).ok());
  EXPECT_FALSE(ParseSealedCheckpoint("").ok());
}

TEST(ResumeChaseTest, RejectsMismatchedVariantAndOptions) {
  StaircaseWorld world;
  ChaseOptions options = RecordingOptions(ChaseVariant::kRestricted, 3);
  auto run = RunChase(world.kb(), options);
  ASSERT_TRUE(run.ok());
  StaircaseWorld fresh;
  ChaseCheckpoint cp = MakeCheckpoint(fresh.kb(), options, *run);

  {
    ChaseOptions wrong = options;
    wrong.variant = ChaseVariant::kCore;
    StaircaseWorld target;
    auto resumed = ResumeChase(target.kb(), wrong, cp);
    EXPECT_FALSE(resumed.ok());
    EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
  }
}

TEST(ResumeChaseTest, RejectsDifferentProgram) {
  StaircaseWorld world;
  ChaseOptions options = RecordingOptions(ChaseVariant::kRestricted, 3);
  auto run = RunChase(world.kb(), options);
  ASSERT_TRUE(run.ok());
  StaircaseWorld fresh;
  ChaseCheckpoint cp = MakeCheckpoint(fresh.kb(), options, *run);

  // The elevator program is not the staircase program.
  ElevatorWorld other;
  auto resumed = ResumeChase(other.kb(), options, cp);
  EXPECT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
}

// Trigger generation is always delta-driven and planned. A checkpoint
// written while delta evaluation or planning could be switched off, and
// recorded with one of them off, is refused up front: its decision bits and
// fingerprint describe a run this build does not make.
std::string RecordStaircaseCheckpoint() {
  StaircaseWorld world;
  ChaseOptions options = RecordingOptions(ChaseVariant::kRestricted, 3);
  auto run = RunChase(world.kb(), options);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  StaircaseWorld fresh;
  return SerializeCheckpoint(MakeCheckpoint(fresh.kb(), options, *run));
}

void ExpectResumeRefused(const std::string& text) {
  auto cp = ParseCheckpoint(text);
  ASSERT_TRUE(cp.ok()) << cp.status().ToString();
  StaircaseWorld target;
  auto resumed = ResumeChase(
      target.kb(), RecordingOptions(ChaseVariant::kRestricted, 3), *cp);
  EXPECT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
}

std::string ReplaceOnce(std::string text, const std::string& from,
                        const std::string& to) {
  const size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

TEST(ResumeChaseTest, RejectsACheckpointRecordedWithDeltaEvaluationOff) {
  const std::string text = RecordStaircaseCheckpoint();
  // The schedule line echoes datalog_first, delta_enabled, core_every,
  // core_at_round_end and core_initial. Round-end coring was a schedule of
  // its own, removed since.
  ExpectResumeRefused(ReplaceOnce(text, "\nschedule 1 1 ", "\nschedule 1 0 "));
  ExpectResumeRefused(
      ReplaceOnce(text, "\nschedule 1 1 1 0 1\n", "\nschedule 1 1 1 1 1\n"));
  // The unmodified checkpoint still resumes.
  auto cp = ParseCheckpoint(text);
  ASSERT_TRUE(cp.ok());
  StaircaseWorld target;
  auto resumed = ResumeChase(
      target.kb(), RecordingOptions(ChaseVariant::kRestricted, 3), *cp);
  EXPECT_TRUE(resumed.ok()) << resumed.status().ToString();
}

// The core chase cores after every application. A checkpoint recorded while
// the spacing was settable, at a spacing other than 1, parses and is refused
// at resume with an error that names the coring schedule.
TEST(ResumeChaseTest, RejectsACheckpointRecordedWithCoringEveryThirdStep) {
  const std::string text = ReplaceOnce(RecordStaircaseCheckpoint(),
                                       "\nschedule 1 1 1 0 1\n",
                                       "\nschedule 1 1 3 0 1\n");
  ExpectResumeRefused(text);
  auto cp = ParseCheckpoint(text);
  ASSERT_TRUE(cp.ok()) << cp.status().ToString();
  EXPECT_EQ(cp->core_every, 3u);
  StaircaseWorld target;
  auto resumed = ResumeChase(
      target.kb(), RecordingOptions(ChaseVariant::kRestricted, 3), *cp);
  ASSERT_FALSE(resumed.ok());
  EXPECT_NE(resumed.status().message().find("coring schedule"),
            std::string::npos)
      << resumed.status().message();
}

// The v1 text of a default-schedule core run (staircase, 6 steps), as
// written before round-end coring was removed: the `schedule` line keeps
// its round-end 0 and every `round` line its "0 0 0" tail, byte for byte.
TEST(CheckpointFormatTest, DefaultScheduleCoreRunWritesThePinnedText) {
  const std::string pinned =
      "twchase-checkpoint 1\n"
      "variant core\n"
      "schedule 1 1 1 0 1\n"
      "program 2975195307304529993\n"
      "stop step-budget\n"
      "progress 6 6\n"
      "instance 15 15118844151877931807\n"
      "variables 5 12\n"
      "initial 1 0 0\n"
      "steps 6\n"
      "step 1 0 0 0\n"
      "step 1 0 0 0\n"
      "step 1 1 4 2147483652 2147483653 2147483653 2147483653 2147483654 "
      "2147483655 2147483655 2147483655 0\n"
      "step 1 0 0 0\n"
      "step 1 0 0 0\n"
      "step 1 0 0 0\n"
      "rounds 6\n"
      "round 2 01 0 0 0\n"
      "round 3 010 0 0 0\n"
      "round 6 000100 0 0 0\n"
      "round 5 00010 0 0 0\n"
      "round 6 000001 0 0 0\n"
      "round 2 01 0 0 0\n"
      "end\n";
  StaircaseWorld world;
  const ChaseOptions options = RecordingOptions(ChaseVariant::kCore, 6);
  auto run = RunChase(world.kb(), options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  StaircaseWorld fresh;
  EXPECT_EQ(SerializeCheckpoint(MakeCheckpoint(fresh.kb(), options, *run)),
            pinned);
}

// A checkpoint as written before datalog_first and core.core_initial became
// fixed behaviour (core staircase, 4 steps): this build writes the same
// bytes for the same run and resumes it to the uninterrupted run.
TEST(ResumeChaseTest, EarlierFormatCheckpointResumesBitIdentically) {
  const std::string recorded =
      "twchase-checkpoint 1\n"
      "variant core\n"
      "schedule 1 1 1 0 1\n"
      "program 2975195307304529993\n"
      "stop step-budget\n"
      "progress 4 4\n"
      "instance 10 15959365901224280656\n"
      "variables 5 11\n"
      "initial 1 0 0\n"
      "steps 4\n"
      "step 1 0 0 0\n"
      "step 1 0 0 0\n"
      "step 1 1 4 2147483652 2147483653 2147483653 2147483653 2147483654 "
      "2147483655 2147483655 2147483655 0\n"
      "step 1 0 0 0\n"
      "rounds 4\n"
      "round 2 01 0 0 0\n"
      "round 3 010 0 0 0\n"
      "round 6 000100 0 0 0\n"
      "round 4 0001 0 0 0\n"
      "end\n";
  StaircaseWorld world;
  auto run = RunChase(world.kb(), RecordingOptions(ChaseVariant::kCore, 4));
  ASSERT_TRUE(run.ok());
  StaircaseWorld fresh;
  EXPECT_EQ(SerializeCheckpoint(MakeCheckpoint(
                fresh.kb(), RecordingOptions(ChaseVariant::kCore, 4), *run)),
            recorded);

  auto cp = ParseCheckpoint(recorded);
  ASSERT_TRUE(cp.ok()) << cp.status().ToString();
  StaircaseWorld target;
  auto resumed =
      ResumeChase(target.kb(), RecordingOptions(ChaseVariant::kCore, 12), *cp);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  StaircaseWorld whole;
  auto uninterrupted =
      RunChase(whole.kb(), RecordingOptions(ChaseVariant::kCore, 12));
  ASSERT_TRUE(uninterrupted.ok());
  EXPECT_EQ(resumed->steps, uninterrupted->steps);
  EXPECT_EQ(resumed->rounds, uninterrupted->rounds);
  EXPECT_EQ(resumed->derivation.Last().ContentHash(),
            uninterrupted->derivation.Last().ContentHash());
  StaircaseWorld again;
  EXPECT_EQ(
      SerializeCheckpoint(MakeCheckpoint(
          again.kb(), RecordingOptions(ChaseVariant::kCore, 12), *resumed)),
      SerializeCheckpoint(MakeCheckpoint(
          again.kb(), RecordingOptions(ChaseVariant::kCore, 12),
          *uninterrupted)));
}

// Datalog rules always come first and the core chase always cores F_0. A
// checkpoint recorded while either could be switched off, with it off,
// holds decision bits of another schedule: a 0 in either schedule column is
// refused at resume.
TEST(ResumeChaseTest, RejectsACheckpointRecordedOffThePapersSchedule) {
  const std::string text = RecordStaircaseCheckpoint();
  ASSERT_NE(text.find("\nschedule 1 1 1 0 1\n"), std::string::npos) << text;
  ExpectResumeRefused(
      ReplaceOnce(text, "\nschedule 1 1 1 0 1\n", "\nschedule 0 1 1 0 1\n"));
  ExpectResumeRefused(
      ReplaceOnce(text, "\nschedule 1 1 1 0 1\n", "\nschedule 1 1 1 0 0\n"));
}

TEST(ResumeChaseTest, RejectsACheckpointRecordedWithPlanningOff) {
  StaircaseWorld world;
  const std::string planned =
      std::to_string(CheckpointFingerprint(world.kb(), ChaseOptions{}));
  // The staircase's fingerprint with planning off, as recorded while the
  // switch existed (it folded 0 where the constant 1 is folded now).
  const std::string unplanned = "742879900336940584";
  ASSERT_NE(planned, unplanned);
  ExpectResumeRefused(ReplaceOnce(RecordStaircaseCheckpoint(),
                                  "\nprogram " + planned + "\n",
                                  "\nprogram " + unplanned + "\n"));
}

// Regression: a --variant=auto resolution (preflight verdict + picked
// variant) is part of the run's identity, folded into the fingerprint ONLY
// for auto runs. Explicit-variant fingerprints must stay byte-compatible
// with pre-preflight checkpoints, and an auto-checkpoint recorded under one
// classification must refuse to resume under another.
TEST(ResumeChaseTest, PreflightDecisionIsPinnedInTheFingerprint) {
  StaircaseWorld world;
  ChaseOptions explicit_options =
      RecordingOptions(ChaseVariant::kRestricted, 3);
  ChaseOptions auto_options = explicit_options;
  auto_options.preflight.auto_variant = true;
  auto_options.preflight.resolved = true;
  auto_options.preflight.verdict = 3;  // TerminationClass::kCoreBts

  // The fold is gated on auto_variant: an auto run hashes differently...
  EXPECT_NE(CheckpointFingerprint(world.kb(), auto_options),
            CheckpointFingerprint(world.kb(), explicit_options));
  // ...while stray preflight fields on an explicit run are invisible (the
  // pre-preflight fingerprint format is preserved bit for bit).
  ChaseOptions stray = explicit_options;
  stray.preflight.verdict = 2;
  EXPECT_EQ(CheckpointFingerprint(world.kb(), stray),
            CheckpointFingerprint(world.kb(), explicit_options));
  // Different verdicts (and different resolved variants) hash apart.
  ChaseOptions reclassified = auto_options;
  reclassified.preflight.verdict = 0;  // TerminationClass::kUnknown
  EXPECT_NE(CheckpointFingerprint(world.kb(), reclassified),
            CheckpointFingerprint(world.kb(), auto_options));

  auto run = RunChase(world.kb(), auto_options);
  ASSERT_TRUE(run.ok());
  StaircaseWorld fresh;
  ChaseCheckpoint cp = MakeCheckpoint(fresh.kb(), auto_options, *run);
  {
    // Re-classification changed since the recording: resume is rejected.
    StaircaseWorld target;
    auto resumed = ResumeChase(target.kb(), reclassified, cp);
    EXPECT_FALSE(resumed.ok());
    EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
  }
  {
    // The same resolution still resumes.
    StaircaseWorld target;
    auto resumed = ResumeChase(target.kb(), auto_options, cp);
    EXPECT_TRUE(resumed.ok()) << resumed.status().ToString();
  }
}

TEST(ResumeChaseTest, RejectsConsumedVocabulary) {
  StaircaseWorld world;
  ChaseOptions options = RecordingOptions(ChaseVariant::kRestricted, 3);
  auto run = RunChase(world.kb(), options);
  ASSERT_TRUE(run.ok());
  ChaseCheckpoint cp = MakeCheckpoint(world.kb(), options, *run);
  // `world`'s vocabulary already minted the run's fresh nulls; resuming
  // against it would mint different ids than the recorded substitutions
  // refer to. (The fingerprint can't see this — the rules and facts are
  // unchanged — so it is a dedicated precondition.)
  auto resumed = ResumeChase(world.kb(), options, cp);
  EXPECT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ResumeChaseTest, StepBudgetInterruptThenResumeMatchesGolden) {
  for (ChaseVariant variant :
       {ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious,
        ChaseVariant::kRestricted, ChaseVariant::kFrugal,
        ChaseVariant::kCore}) {
    SCOPED_TRACE(ChaseVariantName(variant));
    // Golden: 7 steps uninterrupted.
    ElevatorWorld golden_world;
    ChaseOptions golden_options;
    golden_options.variant = variant;
    golden_options.limits.max_steps = 7;
    auto golden = RunChase(golden_world.kb(), golden_options);
    ASSERT_TRUE(golden.ok());

    // Interrupted: stop at 3 via the step budget, checkpoint, resume to 7.
    ElevatorWorld short_world;
    ChaseOptions short_options = RecordingOptions(variant, 3);
    auto shortened = RunChase(short_world.kb(), short_options);
    ASSERT_TRUE(shortened.ok());
    EXPECT_EQ(shortened->stop_reason, StopReason::kStepBudget);

    ElevatorWorld fresh;
    ChaseCheckpoint cp = MakeCheckpoint(fresh.kb(), short_options, *shortened);
    auto parsed = ParseCheckpoint(SerializeCheckpoint(cp));
    ASSERT_TRUE(parsed.ok());

    ElevatorWorld target;
    ChaseOptions resume_options;
    resume_options.variant = variant;
    resume_options.limits.max_steps = 7;
    auto resumed = ResumeChase(target.kb(), resume_options, *parsed);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(resumed->steps, golden->steps);
    EXPECT_EQ(resumed->rounds, golden->rounds);
    EXPECT_EQ(resumed->stop_reason, golden->stop_reason);
    EXPECT_EQ(resumed->derivation.Last().size(),
              golden->derivation.Last().size());
    EXPECT_EQ(resumed->derivation.Last().ContentHash(),
              golden->derivation.Last().ContentHash());
  }
}

TEST(ResumeChaseTest, ZeroDeadlineCheckpointResumesFromScratch) {
  // A run stopped before any work has an empty log; resuming it is simply
  // running from the start — still bit-identical to a direct run.
  ElevatorWorld world;
  ChaseOptions options = RecordingOptions(ChaseVariant::kRestricted, 5);
  options.limits.deadline_ms = 0;
  auto stopped = RunChase(world.kb(), options);
  ASSERT_TRUE(stopped.ok());
  EXPECT_EQ(stopped->stop_reason, StopReason::kDeadline);
  EXPECT_EQ(stopped->steps, 0u);

  ElevatorWorld fresh;
  ChaseCheckpoint cp = MakeCheckpoint(fresh.kb(), options, *stopped);
  auto parsed = ParseCheckpoint(SerializeCheckpoint(cp));
  ASSERT_TRUE(parsed.ok());

  ElevatorWorld target;
  ChaseOptions resume_options;
  resume_options.variant = ChaseVariant::kRestricted;
  resume_options.limits.max_steps = 5;
  auto resumed = ResumeChase(target.kb(), resume_options, *parsed);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();

  ElevatorWorld direct_world;
  ChaseOptions direct_options;
  direct_options.variant = ChaseVariant::kRestricted;
  direct_options.limits.max_steps = 5;
  auto direct = RunChase(direct_world.kb(), direct_options);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(resumed->steps, direct->steps);
  EXPECT_EQ(resumed->derivation.Last().ContentHash(),
            direct->derivation.Last().ContentHash());
}

TEST(ResumeChaseTest, ResumedRunCanBeCheckpointedAgain) {
  // Recording continues through replay, so a resumed run can itself be
  // checkpointed — chains of budget slices compose.
  ElevatorWorld w1;
  ChaseOptions first = RecordingOptions(ChaseVariant::kRestricted, 2);
  auto run1 = RunChase(w1.kb(), first);
  ASSERT_TRUE(run1.ok());
  ElevatorWorld f1;
  auto cp1 = ParseCheckpoint(
      SerializeCheckpoint(MakeCheckpoint(f1.kb(), first, *run1)));
  ASSERT_TRUE(cp1.ok());

  ElevatorWorld w2;
  ChaseOptions second = RecordingOptions(ChaseVariant::kRestricted, 4);
  auto run2 = ResumeChase(w2.kb(), second, *cp1);
  ASSERT_TRUE(run2.ok()) << run2.status().ToString();
  ElevatorWorld f2;
  auto cp2 = ParseCheckpoint(
      SerializeCheckpoint(MakeCheckpoint(f2.kb(), second, *run2)));
  ASSERT_TRUE(cp2.ok());

  ElevatorWorld w3;
  ChaseOptions third;
  third.variant = ChaseVariant::kRestricted;
  third.limits.max_steps = 6;
  auto run3 = ResumeChase(w3.kb(), third, *cp2);
  ASSERT_TRUE(run3.ok()) << run3.status().ToString();

  ElevatorWorld direct_world;
  ChaseOptions direct;
  direct.variant = ChaseVariant::kRestricted;
  direct.limits.max_steps = 6;
  auto golden = RunChase(direct_world.kb(), direct);
  ASSERT_TRUE(golden.ok());
  EXPECT_EQ(run3->steps, golden->steps);
  EXPECT_EQ(run3->derivation.Last().ContentHash(),
            golden->derivation.Last().ContentHash());
}

}  // namespace
}  // namespace twchase
