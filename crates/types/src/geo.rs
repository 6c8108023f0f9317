//! Geography: coordinates, great-circle distances, and fiber propagation
//! delay.
//!
//! The paper's detection method works because light in fiber is slow enough
//! that geography shows up in RTTs: roughly 1 ms of one-way delay per 100 km.
//! Its RTT buckets map onto distance scales — [10 ms, 20 ms) "inter-city",
//! [20 ms, 50 ms) "inter-country", [50 ms, ∞) "inter-continental" — and this
//! module is what makes those scales emerge naturally in the simulator
//! instead of being painted on.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Mean Earth radius in kilometres.
pub const EARTH_RADIUS_KM: f64 = 6_371.0;

/// Propagation speed of light in optical fiber, km per millisecond.
///
/// c / n with n ≈ 1.468 for silica fiber gives ≈ 204 km/ms; published
/// measurement studies round this to ~200 km/ms (equivalently, RTT of
/// ~1 ms per 100 km of fiber path).
pub const FIBER_KM_PER_MS: f64 = 204.0;

/// Ratio of realistic fiber route length to great-circle distance. Real
/// cables follow coasts, rights-of-way, and patch panels; 1.3–1.5 is the
/// conventional "fiber stretch" factor, and we pick the middle.
pub const FIBER_PATH_STRETCH: f64 = 1.4;

/// A continent, used for IXP datasets and membership locality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Continent {
    /// Africa.
    Africa,
    /// Asia.
    Asia,
    /// Europe.
    Europe,
    /// North and Central America (incl. the Caribbean).
    NorthAmerica,
    /// Oceania.
    Oceania,
    /// South America.
    SouthAmerica,
}

impl Continent {
    /// Every continent, in declaration order: `ALL[c as usize] == c`.
    pub const ALL: [Continent; 6] = [
        Continent::Africa,
        Continent::Asia,
        Continent::Europe,
        Continent::NorthAmerica,
        Continent::Oceania,
        Continent::SouthAmerica,
    ];
}

impl fmt::Display for Continent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Continent::Africa => "Africa",
            Continent::Asia => "Asia",
            Continent::Europe => "Europe",
            Continent::NorthAmerica => "North America",
            Continent::Oceania => "Oceania",
            Continent::SouthAmerica => "South America",
        };
        f.write_str(name)
    }
}

/// A point on the Earth's surface (degrees).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeoPoint {
    /// Latitude in degrees (positive = north).
    pub lat_deg: f64,
    /// Longitude in degrees (positive = east).
    pub lon_deg: f64,
}

impl GeoPoint {
    /// A point from latitude/longitude in degrees.
    pub const fn new(lat_deg: f64, lon_deg: f64) -> Self {
        GeoPoint { lat_deg, lon_deg }
    }

    /// Great-circle distance to `other` in kilometres (haversine formula).
    pub fn distance_km(self, other: GeoPoint) -> f64 {
        let (lat1, lon1) = (self.lat_deg.to_radians(), self.lon_deg.to_radians());
        let (lat2, lon2) = (other.lat_deg.to_radians(), other.lon_deg.to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_KM * a.sqrt().asin()
    }

    /// One-way fiber propagation delay to `other`, in milliseconds, assuming
    /// a realistic (stretched) fiber route.
    pub fn fiber_delay_ms(self, other: GeoPoint) -> f64 {
        self.distance_km(other) * FIBER_PATH_STRETCH / FIBER_KM_PER_MS
    }
}

/// A city: the geographic anchor for IXPs, network PoPs, and remote-peering
/// provider endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct City {
    /// City name (unique within [`WORLD_CITIES`]).
    pub name: &'static str,
    /// Country name.
    pub country: &'static str,
    /// Continent, for locality models.
    pub continent: Continent,
    /// Coordinates.
    pub location: GeoPoint,
}

impl City {
    /// A city record (generator datasets use literals).
    pub const fn new(
        name: &'static str,
        country: &'static str,
        continent: Continent,
        lat: f64,
        lon: f64,
    ) -> Self {
        City {
            name,
            country,
            continent,
            location: GeoPoint::new(lat, lon),
        }
    }
}

/// World city database covering every location named by the paper's two IXP
/// datasets plus enough additional metros to place remote members on all
/// populated continents.
pub const WORLD_CITIES: &[City] = &[
    // Europe
    City::new("Amsterdam", "Netherlands", Continent::Europe, 52.37, 4.90),
    City::new("Frankfurt", "Germany", Continent::Europe, 50.11, 8.68),
    City::new("London", "UK", Continent::Europe, 51.51, -0.13),
    City::new("Paris", "France", Continent::Europe, 48.86, 2.35),
    City::new("Warsaw", "Poland", Continent::Europe, 52.23, 21.01),
    City::new("Moscow", "Russia", Continent::Europe, 55.76, 37.62),
    City::new("Vienna", "Austria", Continent::Europe, 48.21, 16.37),
    City::new("Milan", "Italy", Continent::Europe, 45.46, 9.19),
    City::new("Turin", "Italy", Continent::Europe, 45.07, 7.69),
    City::new("Rome", "Italy", Continent::Europe, 41.90, 12.50),
    City::new("Padua", "Italy", Continent::Europe, 45.41, 11.88),
    City::new("Lyon", "France", Continent::Europe, 45.76, 4.84),
    City::new("Stockholm", "Sweden", Continent::Europe, 59.33, 18.06),
    City::new("Dublin", "Ireland", Continent::Europe, 53.35, -6.26),
    City::new("Madrid", "Spain", Continent::Europe, 40.42, -3.70),
    City::new("Barcelona", "Spain", Continent::Europe, 41.39, 2.17),
    City::new("Budapest", "Hungary", Continent::Europe, 47.50, 19.04),
    City::new("Prague", "Czechia", Continent::Europe, 50.08, 14.44),
    City::new("Zurich", "Switzerland", Continent::Europe, 47.37, 8.54),
    City::new("Brussels", "Belgium", Continent::Europe, 50.85, 4.35),
    City::new("Copenhagen", "Denmark", Continent::Europe, 55.68, 12.57),
    City::new("Oslo", "Norway", Continent::Europe, 59.91, 10.75),
    City::new("Helsinki", "Finland", Continent::Europe, 60.17, 24.94),
    City::new("Lisbon", "Portugal", Continent::Europe, 38.72, -9.14),
    City::new("Athens", "Greece", Continent::Europe, 37.98, 23.73),
    City::new("Bucharest", "Romania", Continent::Europe, 44.43, 26.10),
    City::new("Kyiv", "Ukraine", Continent::Europe, 50.45, 30.52),
    City::new("Istanbul", "Turkey", Continent::Europe, 41.01, 28.98),
    City::new("Geneva", "Switzerland", Continent::Europe, 46.20, 6.14),
    City::new("Manchester", "UK", Continent::Europe, 53.48, -2.24),
    // North America
    City::new("New York", "USA", Continent::NorthAmerica, 40.71, -74.01),
    City::new("Seattle", "USA", Continent::NorthAmerica, 47.61, -122.33),
    City::new("Toronto", "Canada", Continent::NorthAmerica, 43.65, -79.38),
    City::new("Miami", "USA", Continent::NorthAmerica, 25.76, -80.19),
    City::new(
        "Los Angeles",
        "USA",
        Continent::NorthAmerica,
        34.05,
        -118.24,
    ),
    City::new("Chicago", "USA", Continent::NorthAmerica, 41.88, -87.63),
    City::new("Ashburn", "USA", Continent::NorthAmerica, 39.04, -77.49),
    City::new("Dallas", "USA", Continent::NorthAmerica, 32.78, -96.80),
    City::new("San Jose", "USA", Continent::NorthAmerica, 37.34, -121.89),
    City::new("Montreal", "Canada", Continent::NorthAmerica, 45.50, -73.57),
    City::new(
        "Vancouver",
        "Canada",
        Continent::NorthAmerica,
        49.28,
        -123.12,
    ),
    City::new(
        "Mexico City",
        "Mexico",
        Continent::NorthAmerica,
        19.43,
        -99.13,
    ),
    City::new(
        "Panama City",
        "Panama",
        Continent::NorthAmerica,
        8.98,
        -79.52,
    ),
    // South America
    City::new(
        "Sao Paulo",
        "Brazil",
        Continent::SouthAmerica,
        -23.55,
        -46.63,
    ),
    City::new(
        "Buenos Aires",
        "Argentina",
        Continent::SouthAmerica,
        -34.60,
        -58.38,
    ),
    City::new(
        "Rio de Janeiro",
        "Brazil",
        Continent::SouthAmerica,
        -22.91,
        -43.17,
    ),
    City::new("Santiago", "Chile", Continent::SouthAmerica, -33.45, -70.67),
    City::new("Bogota", "Colombia", Continent::SouthAmerica, 4.71, -74.07),
    City::new("Lima", "Peru", Continent::SouthAmerica, -12.05, -77.04),
    City::new(
        "Caracas",
        "Venezuela",
        Continent::SouthAmerica,
        10.48,
        -66.90,
    ),
    City::new(
        "Porto Alegre",
        "Brazil",
        Continent::SouthAmerica,
        -30.03,
        -51.23,
    ),
    // Asia
    City::new("Hong Kong", "China", Continent::Asia, 22.32, 114.17),
    City::new("Tokyo", "Japan", Continent::Asia, 35.68, 139.69),
    City::new("Seoul", "South Korea", Continent::Asia, 37.57, 126.98),
    City::new("Singapore", "Singapore", Continent::Asia, 1.35, 103.82),
    City::new("Mumbai", "India", Continent::Asia, 19.08, 72.88),
    City::new("Jakarta", "Indonesia", Continent::Asia, -6.21, 106.85),
    City::new("Taipei", "Taiwan", Continent::Asia, 25.03, 121.57),
    City::new("Bangkok", "Thailand", Continent::Asia, 13.76, 100.50),
    City::new("Manila", "Philippines", Continent::Asia, 14.60, 120.98),
    City::new("Dubai", "UAE", Continent::Asia, 25.20, 55.27),
    #[allow(clippy::approx_constant)] // Kuala Lumpur really is at 3.14 N
    City::new("Kuala Lumpur", "Malaysia", Continent::Asia, 3.14, 101.69),
    // Africa
    City::new(
        "Johannesburg",
        "South Africa",
        Continent::Africa,
        -26.20,
        28.05,
    ),
    City::new("Nairobi", "Kenya", Continent::Africa, -1.29, 36.82),
    City::new("Lagos", "Nigeria", Continent::Africa, 6.52, 3.38),
    City::new("Cairo", "Egypt", Continent::Africa, 30.04, 31.24),
    City::new(
        "Cape Town",
        "South Africa",
        Continent::Africa,
        -33.92,
        18.42,
    ),
    // Oceania
    City::new("Sydney", "Australia", Continent::Oceania, -33.87, 151.21),
    City::new(
        "Auckland",
        "New Zealand",
        Continent::Oceania,
        -36.85,
        174.76,
    ),
];

/// Look up a city from [`WORLD_CITIES`] by name. Panics on a miss: dataset
/// construction uses literal names, so a miss is a programming error.
pub fn city(name: &str) -> City {
    *WORLD_CITIES
        .iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("unknown city: {name}"))
}

/// Look up a city by name, returning `None` on a miss.
pub fn try_city(name: &str) -> Option<City> {
    WORLD_CITIES.iter().find(|c| c.name == name).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_continents_are_indexed_by_discriminant() {
        for (i, c) in Continent::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{c}");
        }
    }

    #[test]
    fn haversine_known_distances() {
        // Amsterdam–London ≈ 360 km; Amsterdam–Hong Kong ≈ 9,300 km.
        let ams = city("Amsterdam").location;
        let lon = city("London").location;
        let hkg = city("Hong Kong").location;
        let d1 = ams.distance_km(lon);
        assert!((330.0..400.0).contains(&d1), "AMS-LON {d1} km");
        let d2 = ams.distance_km(hkg);
        assert!((9_000.0..9_600.0).contains(&d2), "AMS-HKG {d2} km");
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = city("Tokyo").location;
        let b = city("Seattle").location;
        assert!((a.distance_km(b) - b.distance_km(a)).abs() < 1e-9);
        assert!(a.distance_km(a) < 1e-9);
    }

    #[test]
    fn fiber_delay_scales_with_paper_buckets() {
        // Intra-metro: well under the 10 ms remoteness threshold (RTT).
        let ams = city("Amsterdam").location;
        let fra = city("Frankfurt").location;
        let rtt_ms = 2.0 * ams.fiber_delay_ms(fra);
        assert!(rtt_ms < 10.0, "AMS-FRA RTT {rtt_ms} ms should be intercity");

        // Intra-European long haul: the 10–50 ms band.
        let mad = city("Madrid").location;
        let rtt_eu = 2.0 * ams.fiber_delay_ms(mad);
        assert!((10.0..50.0).contains(&rtt_eu), "AMS-MAD RTT {rtt_eu} ms");

        // Trans-continental: at or above 50 ms.
        let nyc = city("New York").location;
        let rtt_tc = 2.0 * ams.fiber_delay_ms(nyc);
        assert!(
            rtt_tc >= 50.0,
            "AMS-NYC RTT {rtt_tc} ms should be intercontinental"
        );
    }

    #[test]
    fn all_cities_have_sane_coordinates() {
        for c in WORLD_CITIES {
            assert!((-90.0..=90.0).contains(&c.location.lat_deg), "{}", c.name);
            assert!((-180.0..=180.0).contains(&c.location.lon_deg), "{}", c.name);
        }
    }

    #[test]
    fn city_names_are_unique() {
        let mut names: Vec<_> = WORLD_CITIES.iter().map(|c| c.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn try_city_misses_gracefully() {
        assert!(try_city("Atlantis").is_none());
        assert_eq!(try_city("Tokyo").unwrap().country, "Japan");
    }
}
