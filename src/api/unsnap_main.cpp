// Entry point of the unified `unsnap` binary. All scenario translation
// units linked into this executable self-register before main runs; the
// driver does the rest, with their twin decks in the source tree's decks/.

#include "api/driver.hpp"

int main(int argc, char** argv) {
  return unsnap::api::run_driver(argc, argv, UNSNAP_DECK_DIR);
}
