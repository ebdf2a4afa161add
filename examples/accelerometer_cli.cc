/**
 * @file
 * The artifact workflow: read model parameters from a configuration
 * file and print the estimated speedup for each section.
 *
 * Usage: accelerometer_cli <config.ini>
 *        accelerometer_cli            (runs the shipped configs/table6.ini)
 */

#include <iostream>

#include "model/config_frontend.hh"
#include "util/logging.hh"

int
main(int argc, char **argv)
{
    try {
        if (argc <= 1) {
            std::cout << "(no config given; using the bundled Table 6 "
                         "parameters)\n\n";
        }
        std::cout << accel::model::runConfigFile(
            argc > 1 ? argv[1] : ACCEL_TABLE6_CONFIG);
        return 0;
    } catch (const accel::FatalError &e) {
        std::cerr << e.what() << "\n";
        return 1;
    }
}
