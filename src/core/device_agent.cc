#include "src/core/device_agent.h"

#include <algorithm>
#include <cstring>

#include "src/profiler/profiler.h"

namespace fl::core {
namespace {

using analytics::DeviceState;
using analytics::SessionEvent;

crypto::Key256 RandomKey(Rng& rng) {
  crypto::Key256 k;
  for (std::size_t i = 0; i < k.size(); i += 8) {
    const std::uint64_t v = rng.Next();
    std::memcpy(k.data() + i, &v, 8);
  }
  return k;
}

// Coarse wire sizes for SecAgg control messages (payload + framing).
std::uint64_t AdvertiseBytes() { return 48; }
// Each is known before the job that builds the message runs.
std::uint64_t ShareKeysBytes(const secagg::SecAggClient::ShareKeysJob& job) {
  return 16 + job.CiphertextBytes() + 12 * job.bundles.size();
}
std::uint64_t MaskedBytes(std::size_t words, std::uint8_t ring_bits) {
  return 16 + secagg::MaskedVectorWireBytes(words, ring_bits);
}
std::uint64_t UnmaskBytes(const secagg::UnmaskingResponse& r) {
  return 16 + 16 * (r.mask_key_shares.size() + 5 * r.self_seed_shares.size());
}

}  // namespace

DeviceAgent::DeviceAgent(sim::DeviceProfile profile, const Services* services)
    : profile_(profile),
      services_(services),
      availability_(*services->curve, profile),
      rng_(profile.seed ^ 0x5851f42d4c957f2dULL),
      runtime_(profile.os_version, &registry_) {
  FL_CHECK(services_->queue != nullptr && services_->network != nullptr &&
           services_->frontend != nullptr && services_->stats != nullptr &&
           services_->config != nullptr && services_->attestation != nullptr &&
           services_->data != nullptr);
  eligible_ = availability_.eligible();
}

void DeviceAgent::Configure(const std::string& population,
                            const std::string& store_name,
                            Duration min_checkin_interval) {
  GetOrCreateStore(store_name);
  const Status s = scheduler_.RegisterPopulation(
      device::PopulationRegistration{population, store_name,
                                     min_checkin_interval});
  FL_CHECK_MSG(s.ok(), s.ToString());
}

device::InMemoryExampleStore& DeviceAgent::GetOrCreateStore(
    const std::string& name) {
  if (const auto found = registry_.Find(name); found.ok()) {
    auto* store = dynamic_cast<device::InMemoryExampleStore*>(*found);
    FL_CHECK_MSG(store != nullptr,
                 "example store '" + name + "' is not an in-memory store");
    return *store;
  }
  auto store = std::make_shared<device::InMemoryExampleStore>(
      name, device::InMemoryExampleStore::Options{});
  device::InMemoryExampleStore& out = *store;
  FL_CHECK(registry_.Register(std::move(store)).ok());
  return out;
}

void DeviceAgent::Start() {
  services_->stats->OnDeviceStateChange(DeviceState::kIdle, state_);
  ScheduleNextToggle();
  // First check-in attempt at a jittered offset so fleet start-up is not a
  // thundering herd by construction.
  ScheduleCheckinPoll(Millis(static_cast<std::int64_t>(
      rng_.UniformInt(static_cast<std::uint64_t>(Minutes(30).millis)))));
}

void DeviceAgent::SetState(DeviceState s) {
  if (s == state_) return;
  services_->stats->OnDeviceStateChange(state_, s);
  state_ = s;
}

void DeviceAgent::EmitSession(analytics::LifecycleEvent e) {
  e.t = services_->queue->now();
  e.source = analytics::JournalSource::kDevice;
  e.device = profile_.id;
  e.session = session_->id;
  e.round = session_->assigned ? session_->round : RoundId{};
  analytics::Emit(services_->events, e);
}

void DeviceAgent::AddTrace(SessionEvent e) {
  if (!session_) return;
  EmitSession({.kind = analytics::JournalEventForSession(e)});
}

void DeviceAgent::ScheduleNextToggle() {
  const SimTime t = availability_.NextToggleAfter(services_->queue->now());
  const bool will_be = availability_.eligible();
  services_->queue->At(t, [this, will_be] { OnToggle(will_be); });
}

void DeviceAgent::OnToggle(bool now_eligible) {
  eligible_ = now_eligible;
  if (!eligible_ && session_) {
    Interrupt();
  } else if (eligible_) {
    TryCheckin();
  }
  ScheduleNextToggle();
}

void DeviceAgent::ScheduleCheckinPoll(Duration delay) {
  if (poll_scheduled_) return;
  poll_scheduled_ = true;
  services_->queue->After(delay, [this] {
    poll_scheduled_ = false;
    TryCheckin();
  });
}

void DeviceAgent::TryCheckin() {
  if (!eligible_ || session_ != nullptr) return;
  const SimTime now = services_->queue->now();
  const auto population = scheduler_.NextSession(now);
  if (!population.has_value()) {
    const auto next = scheduler_.NextRunnableAt(now);
    if (next.has_value()) {
      const Duration wait =
          std::max(Seconds(30), *next - now) +
          Millis(static_cast<std::int64_t>(rng_.UniformInt(10'000)));
      ScheduleCheckinPoll(wait);
    }
    return;
  }
  BeginSession(*population);
}

void DeviceAgent::BeginSession(const std::string& population) {
  // Attestation is the device's first step of check-in.
  const profiler::ScopedPhase profile_scope(profiler::Phase::kCheckin);
  ++sessions_started_;
  ++session_counter_;
  const std::uint64_t gen = ++generation_;
  session_ = std::make_unique<Session>();
  Session& s = *session_;
  s.id = SessionId{(profile_.id.value << 20) | session_counter_};
  s.generation = gen;
  s.checkin_at = services_->queue->now();
  s.population = population;
  scheduler_.OnSessionStarted(population, services_->queue->now());
  SetState(DeviceState::kAttesting);

  // Attestation + connection handshake, then check in (Sec. 3 Job
  // Invocation: "the FL runtime contacts the FL server to announce that it
  // is ready to run tasks for the given FL population").
  const std::uint64_t nonce = rng_.Next();
  const device::AttestationToken token =
      profile_.genuine
          ? services_->attestation->Issue(profile_.id, nonce)
          : services_->attestation->Forge(profile_.id, nonce, rng_.Next());

  const Duration handshake = services_->network->SampleRtt() * 2;
  services_->queue->After(handshake, [this, gen, token, population] {
    if (!Active(gen)) return;
    AddTrace(SessionEvent::kCheckin);
    const profiler::ScopedPhase profile_scope(profiler::Phase::kCheckin);
    server::CheckInRequest req;
    req.device = profile_.id;
    req.session = session_->id;
    req.population = population;
    req.runtime_version = profile_.os_version;
    req.attestation = token;
    const bool ok = services_->frontend->CheckIn(req, MakeLink(gen));
    if (!ok) {
      // Attestation rejected (or no selectors): long back-off.
      scheduler_.SetEarliestCheckin(population,
                                    services_->queue->now() + Hours(6));
      EndSession(false);
      return;
    }
    SetState(DeviceState::kWaiting);
    // Give-up timer: a crashed Selector means silence, not rejection
    // (Sec. 4.4: "only the devices connected to that actor will be lost").
    services_->queue->After(services_->config->device_give_up, [this, gen] {
      if (!Active(gen) || session_->assigned) return;
      EndSession(false);
    });
  });
}

server::DeviceLink DeviceAgent::MakeLink(std::uint64_t gen) {
  server::DeviceLink link;
  link.device = profile_.id;
  link.session = session_->id;
  link.runtime_version = profile_.os_version;
  link.connected_at = services_->queue->now();
  link.assign = [this, gen](const server::TaskAssignment& a) {
    if (!Active(gen)) return;
    // Configuration download: plan + global model over the device's radio.
    const std::uint64_t bytes = a.plan_bytes->size() + a.model_bytes->size();
    const sim::TransferOutcome t = services_->network->Transfer(
        profile_, sim::Direction::kDownload, bytes);
    server::TaskAssignment copy = a;
    const bool ok = t.success && !t.corrupted;
    services_->queue->After(t.duration, [this, gen, copy, ok] {
      if (!Active(gen)) return;
      if (!ok) {
        FailSession("configuration download failed");
        return;
      }
      OnAssigned(gen, copy);
    });
  };
  link.reject = [this, gen](const server::RejectionNotice& n) {
    services_->queue->After(services_->network->SampleRtt(),
                           [this, gen, n] { OnRejected(gen, n); });
  };
  link.report_ack = [this, gen](const server::ReportAck& ack) {
    services_->queue->After(services_->network->SampleRtt(),
                           [this, gen, ack] { OnReportAck(gen, ack); });
  };
  link.secagg_directory = [this, gen](const server::SecAggDirectoryMsg& m) {
    const sim::TransferOutcome t = services_->network->Transfer(
        profile_, sim::Direction::kDownload, 24 * m.directory.size() + 16);
    if (!t.success) return;  // device misses the directory; drops out
    services_->queue->After(t.duration,
                           [this, gen, m] { OnSecAggDirectory(gen, m); });
  };
  link.secagg_shares = [this, gen](const server::SecAggSharesMsg& m) {
    std::uint64_t bytes = 16;
    for (const auto& s : m.shares) bytes += s.ciphertext.size() + 12;
    const sim::TransferOutcome t = services_->network->Transfer(
        profile_, sim::Direction::kDownload, bytes);
    if (!t.success) return;
    services_->queue->After(t.duration,
                           [this, gen, m] { OnSecAggShares(gen, m); });
  };
  link.secagg_unmask = [this, gen](const server::SecAggUnmaskMsg& m) {
    const sim::TransferOutcome t = services_->network->Transfer(
        profile_, sim::Direction::kDownload,
        16 + 8 * (m.request.dropped.size() + m.request.survivors.size()));
    if (!t.success) return;
    services_->queue->After(t.duration,
                           [this, gen, m] { OnSecAggUnmask(gen, m); });
  };
  link.closed = [this, gen](const server::ConnectionClosed&) {
    services_->queue->After(services_->network->SampleRtt(),
                           [this, gen] { OnClosed(gen); });
  };
  return link;
}

void DeviceAgent::OnRejected(std::uint64_t gen,
                             const server::RejectionNotice& notice) {
  if (!Active(gen)) return;
  // Pace steering compliance: pick a reconnect time inside the window
  // ("The device attempts to respect this, modulo its eligibility").
  const SimTime when = protocol::PaceSteeringPolicy::PickWithinWindow(
      notice.retry_window, rng_);
  scheduler_.SetEarliestCheckin(session_->population, when);
  EndSession(false);
}

void DeviceAgent::OnAssigned(std::uint64_t gen,
                             const server::TaskAssignment& assignment) {
  // The device half of Configuration: decoding the plan and the model.
  const profiler::ScopedPhase profile_scope(profiler::Phase::kConfiguration,
                                            assignment.round.value);
  Session& s = *session_;
  SetState(DeviceState::kParticipating);
  s.assigned = true;
  s.round = assignment.round;
  s.aggregator = assignment.aggregator;
  s.participation_deadline = assignment.participation_deadline;
  // After the round is bound, so the 'v' journal/flight record carries it
  // (critical-path attribution joins configured devices on the round id).
  AddTrace(SessionEvent::kDownloadedPlan);

  auto plan = plan::FLPlan::Deserialize(*assignment.plan_bytes);
  auto global = Checkpoint::Deserialize(*assignment.model_bytes);
  if (!plan.ok() || !global.ok()) {
    FailSession("plan/model deserialization failed");
    return;
  }
  s.codec = assignment.codec;
  s.secagg = assignment.secagg_spec;
  if (s.secagg) {
    s.sa_client = std::make_shared<secagg::SecAggClient>(
        assignment.secagg_index, assignment.secagg_threshold,
        s.secagg->vector_length(), RandomKey(rng_), s.secagg->ring_bits);
    s.sa_client->SetThreadPool(services_->compute_pool);
    // Round 0: advertise keys right away, overlapping with training.
    const secagg::KeyAdvertisement adv = s.sa_client->AdvertiseKeys();
    SendSecAggUpload(gen, AdvertiseBytes(), [this, adv] {
      server::SecAggAdvertiseMsg msg;
      msg.device = profile_.id;
      msg.round = session_->round;
      msg.advertisement = adv;
      msg.upload_wire_bytes = AdvertiseBytes();
      services_->frontend->SecAggAdvertise(session_->aggregator, msg);
    });
  }

  // Device-side participation cap.
  const Duration until_deadline = s.participation_deadline -
                                  services_->queue->now();
  if (until_deadline.millis > 0) {
    services_->queue->After(until_deadline, [this, gen] {
      if (!Active(gen)) return;
      if (session_->reported_ok) {
        // Already accepted; a Secure Aggregation session may be lingering
        // for the Finalization round — let its own grace timer end it.
        return;
      }
      // Capped by the server (Fig. 8); abandon quietly.
      EmitSession({.kind = analytics::JournalEventKind::kDeviceDrop});
      EndSession(false);
    });
  }

  StartTraining(gen, std::move(plan).value(), std::move(global).value());
}

void DeviceAgent::CatchUpData() {
  const DataSchedule& data = *services_->data;
  for (; data_calls_run_ < data.due.size(); ++data_calls_run_) {
    data.provisioner(profile_, *this, rng_, data.due[data_calls_run_]);
  }
}

void DeviceAgent::StartTraining(std::uint64_t gen, plan::FLPlan plan,
                                Checkpoint global) {
  Session& s = *session_;
  AddTrace(SessionEvent::kTrainingStarted);

  const profiler::ScopedPhase profile_scope(profiler::Phase::kTraining,
                                            s.round.value);
  // The plan is the first reader of the stores: fill them first.
  CatchUpData();
  auto job = runtime_.PreparePlan(std::move(plan), std::move(global),
                                  services_->queue->now(), rng_);
  if (!job.ok()) {
    // E.g. the example store no longer satisfies the plan's selection
    // criteria — a model-issue '*' right after '[' (Sec. 5's "-v[*").
    FailSession(job.status().ToString());
    return;
  }
  const Duration compute = device::EstimateComputeDuration(
      job->plan, job->examples.size(), profile_);
  if (job->plan.device.kind == plan::TaskKind::kTraining) {
    // The job also encodes the update for upload.
    device::UploadEncoding& upload = job->upload;
    if (s.secagg) {
      upload.kind = device::UploadEncoding::Kind::kSecAgg;
      upload.secagg = *s.secagg;
    } else if (s.codec.enabled()) {
      upload.kind = device::UploadEncoding::Kind::kCodec;
      upload.codec = s.codec;
      // Peek at the encode seed, do not draw it: a session interrupted
      // before BeginUpload never draws it, so a draw here would shift every
      // later draw on this device. BeginUpload draws it and checks.
      Rng peek = rng_;
      s.codec_seed = upload.codec_seed = peek.Next();
    } else {
      upload.kind = device::UploadEncoding::Kind::kSerialize;
    }
  }

  // The computation is pure and its wall-clock cost is simulated, so it
  // runs on the compute pool while the loop moves on; the job owns its
  // inputs, so a session that ends first just drops it.
  s.plan_run.result =
      std::make_shared<std::optional<Result<device::TaskExecution>>>();
  s.plan_run.done = RunJob([job = std::move(job).value(),
                            result = s.plan_run.result,
                            round = s.round.value]() mutable {
    const profiler::ScopedPhase worker_scope(profiler::Phase::kTraining,
                                             round);
    *result = job.Run();
    job = {};  // the inputs are freed inside the training tag too
  });
  services_->queue->After(compute, [this, gen] {
    if (!Active(gen)) return;
    FinishTraining(gen);
  });
}

void DeviceAgent::FinishTraining(std::uint64_t gen) {
  Session& s = *session_;
  const profiler::ScopedPhase profile_scope(profiler::Phase::kTraining,
                                            s.round.value);
  s.plan_run.done.Wait();
  Result<device::TaskExecution> result = std::move(**s.plan_run.result);
  s.plan_run.result.reset();
  if (!result.ok()) {
    FailSession(result.status().ToString());
    return;
  }
  s.metrics = result->metrics;
  s.upload = std::move(result->upload);
  s.trained = true;
  AddTrace(SessionEvent::kTrainingCompleted);
  if (s.secagg) {
    MaybeSendMaskedInput(gen);
  } else {
    BeginUpload(gen);
  }
}

void DeviceAgent::BeginUpload(std::uint64_t gen) {
  Session& s = *session_;
  AddTrace(SessionEvent::kUploadStarted);
  s.uploading = true;

  const profiler::ScopedPhase profile_scope(profiler::Phase::kReporting,
                                            s.round.value);
  server::DeviceReport report;
  report.device = profile_.id;
  report.session = s.id;
  report.round = s.round;
  report.metrics = s.metrics;

  std::uint64_t wire_bytes = 256;  // metrics-only floor (evaluation tasks)
  if (s.upload.has_value()) {
    report.weight = s.upload->weight;
    if (s.codec.enabled()) {
      // Codec path (Sec. 11, Bandwidth): the encoded payload itself travels;
      // the Aggregator decodes and accumulates. The plan job encoded it
      // with the seed StartTraining peeked; the draw still happens here,
      // and a draw that slipped in between would have changed the bits.
      const std::uint64_t seed = rng_.Next();
      FL_CHECK_MSG(seed == s.codec_seed,
                   "device RNG drawn between StartTraining and BeginUpload");
      report.codec_encoded = true;
    }
    wire_bytes = s.upload->wire_bytes;
    report.update_bytes = std::move(s.upload->bytes);
  } else {
    report.weight = static_cast<float>(s.metrics.example_count);
  }
  report.upload_wire_bytes = wire_bytes;

  const sim::TransferOutcome t = services_->network->Transfer(
      profile_, sim::Direction::kUpload, wire_bytes);
  if (!t.success) {
    services_->queue->After(t.duration, [this, gen, t] {
      if (!Active(gen)) return;
      // Wasted bytes still hit the server NIC.
      EmitSession({.kind = analytics::JournalEventKind::kTraffic,
                   .b = t.bytes_on_wire});
      FailSession("upload failed");
    });
    return;
  }
  // Move the report into the event: the serialized update (the dominant
  // per-device buffer) travels device → event node → aggregator without a
  // single copy.
  services_->queue->After(
      t.duration, [this, gen, report = std::move(report)]() mutable {
    if (!Active(gen)) return;
    services_->frontend->Report(session_->aggregator, std::move(report));
    // Ack timeout: a dead Aggregator means silence.
    services_->queue->After(services_->config->ack_timeout, [this, gen] {
      if (!Active(gen)) return;
      FailSession("no ack from aggregator");
    });
  });
}

void DeviceAgent::OnReportAck(std::uint64_t gen, const server::ReportAck& ack) {
  const profiler::ScopedPhase profile_scope(profiler::Phase::kReporting);
  if (!Active(gen)) return;
  Session& s = *session_;
  s.uploading = false;
  s.reported_ok = ack.accepted;
  AddTrace(ack.accepted ? SessionEvent::kUploadCompleted
                        : SessionEvent::kUploadRejected);
  // Pace steering: the server tells reporting devices when to come back
  // (Sec. 2.2 Reporting).
  const SimTime when =
      protocol::PaceSteeringPolicy::PickWithinWindow(ack.next_checkin, rng_);
  scheduler_.SetEarliestCheckin(s.population, when);

  if (s.secagg && ack.accepted) {
    // Stay online for the Finalization round; end after a grace window.
    services_->queue->After(services_->config->ack_timeout * 2, [this, gen] {
      if (!Active(gen)) return;
      EndSession(true);
    });
    return;
  }
  EndSession(ack.accepted);
}

void DeviceAgent::OnClosed(std::uint64_t gen) {
  if (!Active(gen)) return;
  // Server-side abort: stop whatever is running; no further contact.
  EndSession(false);
}

// ---------------------------------------------------------------------------
// Secure Aggregation client-side rounds.
// ---------------------------------------------------------------------------

common::ThreadPool::Handle DeviceAgent::RunJob(std::function<void()> job) {
  if (services_->compute_pool != nullptr) {
    return services_->compute_pool->Submit(std::move(job));
  }
  job();
  return {};
}

secagg::SecAggClient& DeviceAgent::SecAgg() {
  session_->sa_job.Wait();
  return *session_->sa_client;
}

void DeviceAgent::RunSecAggJob(
    std::function<void(secagg::SecAggClient&)> job) {
  Session& s = *session_;
  s.sa_job.Wait();
  s.sa_job = RunJob([client = s.sa_client, job = std::move(job),
                     round = s.round.value] {
    const profiler::ScopedPhase worker_scope(profiler::Phase::kSecAgg, round);
    job(*client);
  });
}

void DeviceAgent::SendSecAggUpload(std::uint64_t gen, std::uint64_t bytes,
                                   std::function<void()> send) {
  const sim::TransferOutcome t =
      services_->network->Transfer(profile_, sim::Direction::kUpload, bytes);
  if (!t.success) {
    // Lost control message: this device silently drops out of the protocol
    // round; SecAgg's share recovery handles it.
    return;
  }
  services_->queue->After(t.duration, [this, gen, send = std::move(send)] {
    if (!Active(gen)) return;
    send();
  });
}

// Each SecAgg reply below is prepared on the loop, which fixes its wire
// size, so the transfer is sampled when the message arrives; the crypto
// runs as the client's job, collected when the reply reaches the server.

void DeviceAgent::OnSecAggDirectory(std::uint64_t gen,
                                    const server::SecAggDirectoryMsg& m) {
  if (!Active(gen) || !session_->sa_client) return;
  const profiler::ScopedPhase profile_scope(profiler::Phase::kSecAgg,
                                            session_->round.value);
  auto job = SecAgg().PrepareShareKeys(m.directory);
  if (!job.ok()) return;
  const std::uint64_t bytes = ShareKeysBytes(*job);
  auto sealed = std::make_shared<std::optional<secagg::ShareKeysMessage>>();
  RunSecAggJob([job = std::move(job).value(),
                sealed](secagg::SecAggClient& client) {
    *sealed = client.SealShares(job);
  });
  SendSecAggUpload(gen, bytes, [this, sealed, bytes] {
    session_->sa_job.Wait();
    server::SecAggShareKeysMsg out;
    out.device = profile_.id;
    out.round = session_->round;
    out.message = std::move(**sealed);
    out.upload_wire_bytes = bytes;
    services_->frontend->SecAggShareKeys(session_->aggregator, out);
  });
}

void DeviceAgent::OnSecAggShares(std::uint64_t gen,
                                 const server::SecAggSharesMsg& m) {
  if (!Active(gen) || !session_->sa_client) return;
  secagg::SecAggClient& client = SecAgg();
  for (const secagg::EncryptedShare& s : m.shares) client.ReceiveShare(s);
  session_->sa_u1 = m.u1;
  MaybeSendMaskedInput(gen);
}

void DeviceAgent::MaybeSendMaskedInput(std::uint64_t gen) {
  Session& s = *session_;
  if (!s.trained || !s.sa_u1.has_value() || s.sa_masked_sent ||
      !s.sa_client) {
    return;
  }
  if (!s.upload.has_value()) return;  // evaluation tasks skip secagg
  s.sa_masked_sent = true;
  const profiler::ScopedPhase profile_scope(profiler::Phase::kSecAgg,
                                            s.round.value);

  // The plan job quantized the update + trailing weight word with the
  // assignment's spec, so device and Aggregator use identical fixed-point
  // scales and — when the cohort sparsifies — the identical agreed
  // coordinate subset.
  auto job =
      SecAgg().PrepareMaskInput(std::move(s.upload->secagg_words), *s.sa_u1);
  if (!job.ok()) return;

  AddTrace(SessionEvent::kUploadStarted);
  s.uploading = true;
  const std::uint64_t bytes = MaskedBytes(job->input.size(), s.secagg->ring_bits);
  auto masked = std::make_shared<std::optional<secagg::MaskedInput>>();
  RunSecAggJob([job = std::move(job).value(),
                masked](secagg::SecAggClient& client) mutable {
    *masked = client.RunMaskInput(std::move(job));
  });
  SendSecAggUpload(gen, bytes, [this, masked, bytes] {
    session_->sa_job.Wait();
    server::SecAggMaskedInputMsg out;
    out.device = profile_.id;
    out.round = session_->round;
    out.input = std::move(**masked);
    out.metrics = session_->metrics;
    out.upload_wire_bytes = bytes;
    services_->frontend->SecAggMaskedInput(session_->aggregator, out);
    // Ack timeout as in the simple path.
    const std::uint64_t gen2 = session_->generation;
    services_->queue->After(services_->config->ack_timeout, [this, gen2] {
      if (!Active(gen2)) return;
      if (session_->uploading) FailSession("no secagg ack");
    });
  });
}

void DeviceAgent::OnSecAggUnmask(std::uint64_t gen,
                                 const server::SecAggUnmaskMsg& m) {
  if (!Active(gen) || !session_->sa_client) return;
  const profiler::ScopedPhase profile_scope(profiler::Phase::kSecAgg,
                                            session_->round.value);
  auto job = SecAgg().PrepareUnmask(m.request);
  if (!job.ok()) return;
  const std::uint64_t bytes = UnmaskBytes(job->response);
  auto opened =
      std::make_shared<std::optional<Result<secagg::UnmaskingResponse>>>();
  RunSecAggJob([job = std::move(job).value(),
                opened](secagg::SecAggClient& client) mutable {
    *opened = client.OpenShares(std::move(job));
  });
  SendSecAggUpload(gen, bytes, [this, opened, bytes] {
    session_->sa_job.Wait();
    // A share that fails to open (no fleet sends one) leaves nothing to
    // deliver; the session ends on its grace timer as if it were lost.
    if (!(*opened)->ok()) return;
    server::SecAggUnmaskResponseMsg out;
    out.device = profile_.id;
    out.round = session_->round;
    out.response = std::move(**opened).value();
    out.upload_wire_bytes = bytes;
    services_->frontend->SecAggUnmaskResponse(session_->aggregator, out);
    EndSession(true);
  });
}

// ---------------------------------------------------------------------------
// Session teardown.
// ---------------------------------------------------------------------------

void DeviceAgent::Interrupt() {
  if (!session_) return;
  if (session_->reported_ok) {
    // A Secure Aggregation device waiting for the unmask round: its masked
    // input is already in the sum and the protocol tolerates the missing
    // unmask share, so the session ends completed, not dropped.
    EndSession(true);
    return;
  }
  // Interrupted mid-session ('!'): eligibility lost — e.g., the user picked
  // up the phone (Sec. 3: "the FL runtime will abort ... if these conditions
  // are no longer met").
  if (session_->assigned) {
    AddTrace(SessionEvent::kInterrupted);
    EmitSession({.kind = analytics::JournalEventKind::kDeviceDrop});
  }
  EndSession(false);
}

void DeviceAgent::FailSession(const std::string& why) {
  (void)why;
  if (!session_) return;
  AddTrace(SessionEvent::kError);
  if (session_->assigned) {
    EmitSession({.kind = analytics::JournalEventKind::kDeviceDrop});
  }
  EndSession(false);
}

void DeviceAgent::EndSession(bool completed) {
  if (!session_) return;
  if (completed) ++sessions_completed_;
  const SimTime now = services_->queue->now();
  EmitSession({.kind = analytics::JournalEventKind::kSessionEnd,
               .a = completed ? 1u : 0u,
               .b = session_->assigned ? static_cast<std::uint64_t>(
                                             (now - session_->checkin_at).millis)
                                       : 0});
  session_.reset();
  ++generation_;
  scheduler_.OnSessionEnded();
  SetState(DeviceState::kIdle);
  // Plan the next check-in.
  const auto next = scheduler_.NextRunnableAt(now);
  if (next.has_value()) {
    ScheduleCheckinPoll(std::max(Seconds(30), *next - now));
  }
}

}  // namespace fl::core
