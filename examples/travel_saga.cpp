// Travel-booking saga over COMPE (paper section 4.2).
//
// Booking a trip reserves a flight seat, a hotel room and a rental car —
// three update ETs applied optimistically at every replica as the customer
// moves through checkout. If any leg can't be honored, the whole saga
// aborts and the completed steps are compensated in reverse. Meanwhile,
// inventory dashboards keep reading, with the saga's potential
// compensations charged to their inconsistency counters ("by clearing the
// lock-counters only at the end of the entire saga the query ETs have a
// conservative estimate of the total potential inconsistency").

#include <cstdio>

#include "esr/replicated_system.h"

using esr::core::Method;
using esr::core::ReplicatedSystem;
using esr::core::SystemConfig;
using esr::store::Operation;

namespace {
constexpr esr::ObjectId kFlightSeats = 0;
constexpr esr::ObjectId kHotelRooms = 1;
constexpr esr::ObjectId kRentalCars = 2;

void PrintInventory(ReplicatedSystem& system, const char* when) {
  std::printf("%-28s seats=%s rooms=%s cars=%s (site 2's view)\n", when,
              system.SiteValue(2, kFlightSeats).ToString().c_str(),
              system.SiteValue(2, kHotelRooms).ToString().c_str(),
              system.SiteValue(2, kRentalCars).ToString().c_str());
}

void Dashboard(ReplicatedSystem& system, const char* label) {
  const esr::EtId q = system.BeginQuery(/*site=*/2, /*epsilon=*/10);
  int64_t total_uncertainty = 0;
  for (esr::ObjectId obj : {kFlightSeats, kHotelRooms, kRentalCars}) {
    auto v = system.TryRead(q, obj);
    if (!v.ok()) continue;
  }
  const auto* state = system.query_state(q);
  if (state != nullptr) total_uncertainty = state->inconsistency;
  std::printf("%-28s dashboard read all 3 inventories; potential "
              "compensations charged: %lld\n",
              label, static_cast<long long>(total_uncertainty));
  (void)system.EndQuery(q);
}

}  // namespace

int main() {
  SystemConfig config;
  config.method = Method::kCompe;
  config.num_sites = 3;
  config.network.base_latency_us = 15'000;
  config.seed = 5;
  ReplicatedSystem system(config);

  // Stock the inventories.
  (void)system.SubmitUpdate(0, {Operation::Increment(kFlightSeats, 100),
                                Operation::Increment(kHotelRooms, 50),
                                Operation::Increment(kRentalCars, 20)});
  system.RunUntilQuiescent();
  // Finalize the stocking update so it can't be compensated later.
  // (Inventory load is its own single-step "saga".)
  // Decide via the facade: et id 1 was the stocking update.
  (void)system.Decide(1, /*commit=*/true);
  system.RunUntilQuiescent();
  PrintInventory(system, "initial stock:");

  // --- A successful trip ----------------------------------------------------
  std::printf("\ncustomer A books flight+hotel+car (saga)...\n");
  auto saga_a = system.BeginSaga(/*origin=*/0);
  (void)system.SubmitSagaStep(*saga_a, {Operation::Increment(kFlightSeats, -1)});
  (void)system.SubmitSagaStep(*saga_a, {Operation::Increment(kHotelRooms, -1)});
  (void)system.SubmitSagaStep(*saga_a, {Operation::Increment(kRentalCars, -1)});
  system.RunUntilQuiescent();
  Dashboard(system, "during saga A:");
  (void)system.EndSaga(*saga_a, /*commit=*/true);
  system.RunUntilQuiescent();
  PrintInventory(system, "after saga A commits:");
  Dashboard(system, "after saga A:");

  // --- A failed trip --------------------------------------------------------
  std::printf("\ncustomer B books, but the car desk rejects the card...\n");
  auto saga_b = system.BeginSaga(/*origin=*/1);
  (void)system.SubmitSagaStep(*saga_b, {Operation::Increment(kFlightSeats, -1)});
  (void)system.SubmitSagaStep(*saga_b, {Operation::Increment(kHotelRooms, -1)});
  system.RunUntilQuiescent();
  PrintInventory(system, "mid-saga B (tentative):");
  Dashboard(system, "during saga B:");
  std::printf("payment fails -> saga aborts; steps compensated in reverse\n");
  (void)system.EndSaga(*saga_b, /*commit=*/false);
  system.RunUntilQuiescent();
  PrintInventory(system, "after saga B aborts:");
  std::printf("\nconverged: %s, compensations executed: %lld\n",
              system.Converged() ? "yes" : "no",
              static_cast<long long>(system.metrics().CounterValue(
                  "esr_events_total", {{"event", "esr.compensations"}})));
  return 0;
}
